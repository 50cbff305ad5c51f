/**
 * @file
 * Serialization of schedule configs and tuning records.
 *
 * Production auto-schedulers keep a tuning cache: the best schedule found
 * for each (operator, shape, device) is logged so later sessions reuse it
 * instead of re-exploring. This module provides a line-oriented text
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
 * Stable identity of a tuning task: operator name, output shape, loop
 * extents, and device. Two structurally identical operators share a key.
 */
std::string tuningKey(const Tensor &output, const std::string &device);

/** Key for one specific compute node (graph-level scheduling). */
std::string tuningKeyFor(const Operation &anchor,
                         const std::string &device);

/** One cached tuning result. */
struct TuningRecord
{
    std::string key;
    OpConfig config;
    double gflops = 0.0;
};

/**
 * A persistent best-schedule store keyed by tuningKey.
 *
 * Safe for concurrent lookup/store from multiple tuning threads (an
 * internal mutex guards the record map). save() writes a CRC32-framed
 * journal (support/journal.h) via a temp file plus atomic rename, so a
 * crashed or interrupted writer can never leave a truncated cache
 * behind, and load() recovers every intact record before a torn tail.
 * A file that is not a tuning-cache journal loads as empty.
 */
class TuningCache
{
  public:
    /** Record a result; keeps only the best per key. */
    void put(const TuningRecord &record);

    /** Best known record for the key, if any. */
    std::optional<TuningRecord> lookup(const std::string &key) const;

    /** Number of cached entries. */
    size_t size() const;

    /**
     * Write all records as a journal (one frame per record). The file
     * is replaced atomically: bytes go to `path + ".tmp"`, then rename.
     */
    bool save(const std::string &path) const;

    /** Merge records from a file; returns false when unreadable. */
    bool load(const std::string &path);

  private:
    void putLocked(TuningRecord record);

    mutable std::mutex mu_;
    std::map<std::string, TuningRecord> records_;
};

} // namespace ft

#endif // FLEXTENSOR_SCHEDULE_SERIALIZE_H
