/**
 * @file
 * Serialization of schedule configs and tuning records.
 *
 * Production auto-schedulers keep a tuning cache: the best schedule found
 * for each (operator structure, device) is logged so later sessions reuse
 * it instead of re-exploring. This module provides a line-oriented text
 * format for OpConfig and a TuningCache with file round-trip.
 */
#ifndef FLEXTENSOR_SCHEDULE_SERIALIZE_H
#define FLEXTENSOR_SCHEDULE_SERIALIZE_H

#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "ir/graph.h"
#include "schedule/config.h"

namespace ft {

/** Render a config as a single parseable line. */
std::string serializeConfig(const OpConfig &config);

/** Parse a line produced by serializeConfig. Returns nullopt on error. */
std::optional<OpConfig> parseConfig(const std::string &line);

/**
 * Structural identity of a tuning task: the anchor's OpKey (extents,
 * body, input shapes and strides, never names) mixed with the device.
 * The TuningCache and the cost model's workload groups key on it.
 */
uint64_t workloadKey(const Operation &anchor, const std::string &device);

/** Name, output and reduce extents and device (the admission key). */
std::string tuningKeyFor(const Operation &anchor,
                         const std::string &device);

/** One cached tuning result. */
struct TuningRecord
{
    uint64_t key = 0; ///< workloadKey of the anchor and device
    OpConfig config;
    double gflops = 0.0;

    /**
     * Whether the record holds a usable schedule: its GFLOPS is finite
     * and above kInvalidGflops, the score of a rejected trial.
     */
    bool valid() const;
};

/**
 * A persistent best-schedule store keyed by workloadKey.
 *
 * Safe for concurrent lookup/store from multiple tuning threads (an
 * internal mutex guards the record map). save() writes a CRC32-framed
 * journal (support/journal.h) via a temp file plus atomic rename, so a
 * crashed or interrupted writer can never leave a truncated cache
 * behind, and load() recovers every intact record before a torn tail.
 * A file that is not a tuning-cache journal (string-keyed caches
 * included) loads as empty, with a warning.
 */
class TuningCache
{
  public:
    /** Record a valid result; keeps only the best per key. */
    void put(const TuningRecord &record);

    /** Best known record for the key, if any. */
    std::optional<TuningRecord> lookup(uint64_t key) const;

    /** Number of cached entries. */
    size_t size() const;

    /**
     * Write all records as a journal (one frame per record). The file
     * is replaced atomically: bytes go to `path + ".tmp"`, then rename.
     */
    bool save(const std::string &path) const;

    /**
     * Merge records from a file, dropping invalid ones; returns false
     * when unreadable.
     */
    bool load(const std::string &path);

  private:
    mutable std::mutex mu_;
    std::map<uint64_t, TuningRecord> records_;
};

} // namespace ft

#endif // FLEXTENSOR_SCHEDULE_SERIALIZE_H
