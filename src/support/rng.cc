#include "support/rng.h"

#include <algorithm>
#include <cmath>

#include "support/logging.h"

namespace ft {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t s = seed;
    for (auto &w : state_)
        w = splitmix64(s);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

double
Rng::uniform()
{
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::below(uint64_t n)
{
    FT_ASSERT(n > 0, "Rng::below requires n > 0");
    // Rejection sampling to avoid modulo bias.
    uint64_t threshold = -n % n;
    for (;;) {
        uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    FT_ASSERT(lo <= hi, "Rng::range requires lo <= hi");
    return lo + static_cast<int64_t>(below(static_cast<uint64_t>(hi - lo) + 1));
}

double
Rng::normal()
{
    if (haveSpare_) {
        haveSpare_ = false;
        return spare_;
    }
    double u, v, s;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    double m = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * m;
    haveSpare_ = true;
    return u * m;
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

void
Rng::fillNormal(float *out, std::size_t n, double mean, double stddev)
{
    std::size_t i = 0;
    if (n > 0 && haveSpare_) {
        haveSpare_ = false;
        out[i++] = static_cast<float>(mean + stddev * spare_);
    }
    // Chunks of polar pairs. Stage 1 draws the chunk's accepted (u, v, s)
    // triples: every candidate is written to slot k and kept by
    // advancing k, so the accept is branch-free and the draws follow
    // normal()'s exact order. Stage 2 then runs log/div/sqrt over
    // independent pairs, whose latencies overlap.
    constexpr std::size_t kChunk = 64;
    double us[kChunk] = {}, vs[kChunk] = {}, ss[kChunk] = {};
    while (i < n) {
        const std::size_t pairs = std::min(kChunk, (n - i + 1) / 2);
        std::size_t k = 0;
        while (k < pairs) {
            const double u = uniform(-1.0, 1.0);
            const double v = uniform(-1.0, 1.0);
            const double s = u * u + v * v;
            us[k] = u;
            vs[k] = v;
            ss[k] = s;
            k += static_cast<std::size_t>((s < 1.0) & (s != 0.0));
        }
        for (std::size_t p = 0; p < pairs; ++p) {
            const double m = std::sqrt(-2.0 * std::log(ss[p]) / ss[p]);
            out[i++] = static_cast<float>(mean + stddev * (us[p] * m));
            // normal() banks v * m even when the next call consumes it,
            // and state() exposes the consumed value too.
            spare_ = vs[p] * m;
            if (i < n)
                out[i++] = static_cast<float>(mean + stddev * spare_);
            else
                haveSpare_ = true;
        }
    }
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

std::size_t
Rng::index(std::size_t size)
{
    return static_cast<size_t>(below(size));
}

RngState
Rng::state() const
{
    RngState out;
    for (int i = 0; i < 4; ++i)
        out.s[i] = state_[i];
    out.haveSpare = haveSpare_;
    out.spare = spare_;
    return out;
}

void
Rng::setState(const RngState &state)
{
    for (int i = 0; i < 4; ++i)
        state_[i] = state.s[i];
    haveSpare_ = state.haveSpare;
    spare_ = state.spare;
}

} // namespace ft
