/**
 * @file
 * ObsContext: the nullable pair of observability sinks threaded through
 * the exploration and serving layers, and StageTimer, the one wall
 * clock behind every `*.ns` counter and span `ns` field.
 *
 * Both pointers are optional and not owned. Code holding a context
 * guards every emission with a null check, so a disabled context costs
 * one branch per site and — crucially — observation never changes
 * behavior: with or without sinks attached, explorer results (history,
 * best point, simulated clock, RNG stream) are bit-identical.
 */
#ifndef FLEXTENSOR_OBS_OBS_H
#define FLEXTENSOR_OBS_OBS_H

#include <chrono>
#include <cstdint>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ft {

struct ObsContext
{
    TraceRecorder *trace = nullptr;     ///< per-run JSONL timeline
    MetricsRegistry *metrics = nullptr; ///< counters/gauges/histograms

    /**
     * Opt-in wall-clock profiling: every StageTimer adds its stage's
     * wall nanoseconds to a `*.ns` counter and, where the stage's span
     * carries them, to the span end's `ns`. Off by default because wall
     * timestamps are inherently nondeterministic; simulated-clock
     * traces stay byte-identical only while this is false.
     */
    bool wallProfile = false;

    bool enabled() const { return trace != nullptr || metrics != nullptr; }
};

/** The clock behind every wall-profiling `*.ns` counter and span. */
using WallClock = std::chrono::steady_clock;

/** The last stage boundary of a timed call; `on` false reads no clock. */
struct WallMark
{
    bool on = false;
    WallClock::time_point at;

    /** The `ns` field a span end carries for a lap, none when untimed. */
    std::optional<TraceField> nsField(int64_t ns) const
    {
        if (!on)
            return std::nullopt;
        return tint("ns", ns);
    }
};

/**
 * One wall-profiled stage: its `*.ns` counter, resolved once per run
 * (null unless the run profiles wall time into a metrics registry). A
 * call times its stages only when a counter or, under wallProfile, a
 * span end takes the figures (WallMark::nsField); then each boundary
 * is one clock read, shared by the stage it ends and the one it starts.
 */
class StageTimer
{
  public:
    StageTimer() = default;
    StageTimer(const ObsContext &obs, const char *counter)
        : counter_(obs.wallProfile ? maybeCounter(obs.metrics, counter)
                                   : nullptr),
          profiled_(obs.wallProfile)
    {}

    /** The first boundary; `trace` is where the stage's span ends. */
    WallMark start(const TraceRecorder *trace = nullptr) const
    {
        if (!counter_ && !(profiled_ && trace))
            return {};
        return {true, WallClock::now()};
    }

    /** End the stage at a new boundary: its wall nanoseconds (0 when
     *  untimed), added to the counter. Includes one clock read. */
    int64_t lap(WallMark &mark) const
    {
        if (!mark.on)
            return 0;
        const WallClock::time_point now = WallClock::now();
        const std::chrono::nanoseconds ns = now - mark.at;
        mark.at = now;
        if (counter_)
            counter_->add(static_cast<uint64_t>(ns.count()));
        return ns.count();
    }

  private:
    Counter *counter_ = nullptr;
    bool profiled_ = false;
};

} // namespace ft

#endif // FLEXTENSOR_OBS_OBS_H
