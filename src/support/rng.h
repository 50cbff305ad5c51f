/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components (simulated annealing, Q-learning exploration,
 * network initialization, random search) draw from an explicit Rng instance
 * so that every experiment is reproducible from a seed.
 */
#ifndef FLEXTENSOR_SUPPORT_RNG_H
#define FLEXTENSOR_SUPPORT_RNG_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ft {

/** Complete generator state, exposed for checkpoint/resume. */
struct RngState
{
    uint64_t s[4] = {0, 0, 0, 0};
    bool haveSpare = false; ///< Box-Muller spare normal is banked
    double spare = 0.0;
};

/**
 * xoshiro256** generator seeded via SplitMix64.
 *
 * Small, fast, and high quality; good enough for search heuristics and
 * weight initialization. Not cryptographic.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded through SplitMix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    uint64_t below(uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t range(int64_t lo, int64_t hi);

    /** Standard normal sample (Box-Muller). */
    double normal();

    /** Normal sample with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Fill out[0..n) with normal samples. Equivalent to the scalar loop
     *     for (i = 0; i < n; ++i) out[i] = float(normal(mean, stddev));
     * bit for bit, and leaves the same state() afterwards (a banked
     * spare is consumed first; an odd tail banks one). It only batches
     * the polar method: all pairs are drawn first, then transformed.
     */
    void fillNormal(float *out, std::size_t n, double mean, double stddev);

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p);

    /** Pick a uniformly random index of a non-empty container size. */
    std::size_t index(std::size_t size);

    /** Snapshot the full generator state (checkpointing). */
    RngState state() const;

    /** Restore a state captured by state(); resumes the exact stream. */
    void setState(const RngState &state);

    /** In-place Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = below(i);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    uint64_t state_[4];
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

} // namespace ft

#endif // FLEXTENSOR_SUPPORT_RNG_H
