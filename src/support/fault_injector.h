/**
 * @file
 * Deterministic measurement-fault injection.
 *
 * Real hardware measurement fails routinely: compiles error out, kernels
 * hang past the measurement budget, remote workers die, and occasional
 * runs report garbage numbers. The injector makes those events first-class
 * and reproducible: every fault decision is a pure function of
 * (seed, point key, attempt index), so a faulty run replays bit-identically
 * regardless of thread interleaving, and tests can stage each failure mode
 * on demand.
 *
 * Each point is assigned one failure mode from the profile's per-mode
 * probabilities (hashed from the seed and the point's key):
 *
 *  - Transient: the first `transientFailures` attempts error out, later
 *    attempts succeed — recoverable by retry.
 *  - Permanent: every attempt errors out — the point belongs in
 *    quarantine.
 *  - Timeout: every attempt hangs for `hangSeconds` of simulated time
 *    (cut off at the policy layer's per-trial deadline).
 *  - Outlier: the first attempt reports a corrupted value scaled by
 *    `outlierScale`; repeated measurement rejects it by median.
 */
#ifndef FLEXTENSOR_SUPPORT_FAULT_INJECTOR_H
#define FLEXTENSOR_SUPPORT_FAULT_INJECTOR_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace ft {

/** Failure mode assigned to a measured point. */
enum class FaultKind { None, Transient, Permanent, Timeout, Outlier };

/** Per-mode probabilities and fault shape parameters. */
struct FaultProfile
{
    double transient = 0.0; ///< P(point fails transiently)
    double permanent = 0.0; ///< P(point fails on every attempt)
    double timeout = 0.0;   ///< P(point hangs on every attempt)
    double outlier = 0.0;   ///< P(point's first attempt reports garbage)
    /** Attempts that fail before a Transient point recovers. */
    int transientFailures = 1;
    /** Simulated seconds a hung measurement runs before being killed. */
    double hangSeconds = 10.0;
    /** Multiplier applied to an Outlier point's corrupted value. */
    double outlierScale = 10.0;
    uint64_t seed = 0x5eed;

    /** True when any failure mode has nonzero probability. */
    bool enabled() const
    {
        return transient > 0.0 || permanent > 0.0 || timeout > 0.0 ||
               outlier > 0.0;
    }
};

/**
 * Parse "key=value,..." into a profile. Keys: transient, permanent,
 * timeout, outlier (probabilities in [0,1]); flaky (transient failure
 * count), hang (seconds), scale (outlier multiplier), seed. Returns
 * nullopt on an unknown key or unparseable value.
 */
std::optional<FaultProfile> parseFaultProfile(const std::string &spec);

/** Outcome of one injected measurement attempt. */
struct FaultOutcome
{
    FaultKind kind = FaultKind::None;
    bool failed = false;  ///< no value produced (error or hang)
    bool hung = false;    ///< ran until killed; charge hang time
    double gflops = 0.0;  ///< delivered value when !failed
};

class FaultInjector
{
  public:
    explicit FaultInjector(const FaultProfile &profile);

    const FaultProfile &profile() const { return profile_; }

    /** The failure mode this point is assigned under the profile. */
    FaultKind pointMode(const std::string &key) const;

    /**
     * Fate of measurement attempt `attempt` (0-based, counted across
     * retries and repeats) of the point keyed `key` whose true
     * performance is `trueGflops`. Pure and thread-safe.
     */
    FaultOutcome apply(const std::string &key, int attempt,
                       double trueGflops) const;

    /**
     * Crash-at-byte-offset shim for durability tests: the byte offset
     * at which a write of `totalBytes` to `path` is torn, in
     * [1, totalBytes), as a pure function of (profile seed, path,
     * schedule). Iterating `schedule` yields a deterministic crash
     * schedule for the same file, so every seeded crash point is
     * replayable. totalBytes must be >= 2.
     */
    size_t crashOffsetFor(const std::string &path, size_t totalBytes,
                          uint64_t schedule = 0) const;

    /**
     * Torn-write shim: write `bytes` to `path` but stop (as a crash
     * would) after `crashAtByte` bytes, leaving a torn tail in place.
     * Unlike the production writers there is deliberately no temp
     * file + rename — this models the unsafe write the journal layer
     * must recover from.
     */
    static bool writeTorn(const std::string &path, std::string_view bytes,
                          size_t crashAtByte);

    /** Flip one bit of the file in place (bit `bitIndex` modulo the
     *  file's size in bits) — the bit-rot corruption shim. */
    static bool flipBit(const std::string &path, uint64_t bitIndex);

  private:
    FaultProfile profile_;
};

} // namespace ft

#endif // FLEXTENSOR_SUPPORT_FAULT_INJECTOR_H
