/**
 * @file
 * Structured tracing for exploration runs: a per-run JSONL event
 * timeline.
 *
 * Each event is one JSON object per line with a fixed field order:
 *
 *   {"i":<index>,"t":"<type>","name":"<name>","sim":<seconds>,...}
 *
 * Types: "M" run metadata (no sim clock), "B"/"E" span begin/end, and
 * "P" point events. Everything in the payload is deterministic for a
 * fixed seed: timestamps are the *simulated* exploration clock (never
 * the wall clock) and ordering is a monotonic per-recorder event index,
 * so two runs of the same seed produce byte-identical timelines.
 * Doubles are rendered with the shortest representation that
 * round-trips (std::to_chars), which is also byte-stable.
 *
 * The recorder buffers serialized lines in memory (a full tuning run is
 * a few thousand events) and writes the file once at the end; emitting
 * is mutex-protected so concurrent scoring threads may emit safely.
 */
#ifndef FLEXTENSOR_OBS_TRACE_H
#define FLEXTENSOR_OBS_TRACE_H

#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ft {

/** Shortest round-tripping decimal rendering of a double. */
std::string formatTraceDouble(double v);

/** One pre-rendered event attribute (key plus JSON value text). */
struct TraceField
{
    std::string key;
    std::string json;
};

/** Attribute constructors; values render immediately. */
TraceField tstr(std::string_view key, std::string_view value);
TraceField tint(std::string_view key, int64_t value);
TraceField treal(std::string_view key, double value);
TraceField tbool(std::string_view key, bool value);

class TraceRecorder
{
  public:
    TraceRecorder() = default;
    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /** Run-level metadata (method, seed, device, ...); no sim clock. */
    void meta(std::string_view name,
              std::initializer_list<TraceField> fields = {});

    /** Open a span at simulated time `sim`. */
    void begin(std::string_view name, double sim,
               std::initializer_list<TraceField> fields = {});

    /** Close the innermost open span named `name`; `last`, if set,
     *  follows `fields`. */
    void end(std::string_view name, double sim,
             std::initializer_list<TraceField> fields = {},
             const std::optional<TraceField> &last = std::nullopt);

    /** Instantaneous event. */
    void point(std::string_view name, double sim,
               std::initializer_list<TraceField> fields = {});

    /**
     * Append every event of `other`, in order, renumbering its `"i"`
     * indices to continue this recorder's. A concurrent search records
     * into its own recorder and is spliced into the parent timeline
     * where a sequential run would have written it.
     */
    void append(const TraceRecorder &other);

    uint64_t eventCount() const;

    /** All serialized lines, in event order. */
    std::vector<std::string> lines() const;

    /** The whole timeline as one newline-terminated JSONL string. */
    std::string toJsonl() const;

    /** Write the timeline to `path` (truncates). False on I/O error. */
    bool writeFile(const std::string &path) const;

  private:
    void emit(char type, std::string_view name, const double *sim,
              std::initializer_list<TraceField> fields,
              const TraceField *last = nullptr);

    mutable std::mutex mu_;
    std::vector<std::string> lines_;
};

/** One parsed trace event (see parseTraceLine). */
struct ParsedTraceEvent
{
    uint64_t index = 0;
    char type = 'P'; ///< 'M', 'B', 'E', or 'P'
    std::string name;
    double sim = 0.0;
    /** Remaining attributes as raw text (strings unescaped). */
    std::map<std::string, std::string> fields;

    bool has(const std::string &key) const { return fields.count(key) > 0; }
    std::string str(const std::string &key, std::string def = "") const;
    int64_t integer(const std::string &key, int64_t def = 0) const;
    double real(const std::string &key, double def = 0.0) const;
};

/**
 * Parse one line written by TraceRecorder. Accepts exactly the flat
 * object subset the recorder emits; returns nullopt on anything else.
 */
std::optional<ParsedTraceEvent> parseTraceLine(const std::string &line);

/** Parse a whole JSONL file; nullopt when unreadable or any line is
 *  malformed. */
std::optional<std::vector<ParsedTraceEvent>>
loadTraceFile(const std::string &path);

} // namespace ft

#endif // FLEXTENSOR_OBS_TRACE_H
