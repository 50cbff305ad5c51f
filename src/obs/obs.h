/**
 * @file
 * ObsContext: the nullable pair of observability sinks threaded through
 * the exploration and serving layers.
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

namespace ft {

class TraceRecorder;
class MetricsRegistry;

struct ObsContext
{
    TraceRecorder *trace = nullptr;     ///< per-run JSONL timeline
    MetricsRegistry *metrics = nullptr; ///< counters/gauges/histograms

    /**
     * Opt-in wall-clock profiling of the evaluation hot path. When set,
     * per-component wall nanoseconds flow into `*.ns` counters and (on
     * the single-threaded path) `eval.decode`/`eval.lower` trace spans.
     * Off by default because wall timestamps are inherently
     * nondeterministic; simulated-clock traces stay byte-identical only
     * while this is false.
     */
    bool wallProfile = false;

    bool enabled() const { return trace != nullptr || metrics != nullptr; }
};

/** The clock behind every wall-profiling `*.ns` counter and span. */
using WallClock = std::chrono::steady_clock;

/**
 * Wall nanoseconds from `mark` to now, then move `mark` to now: one
 * clock read per call, so consecutive calls time consecutive stages.
 * Every figure taken this way includes one clock read (tens of ns).
 */
inline int64_t
wallLapNs(WallClock::time_point &mark)
{
    const WallClock::time_point now = WallClock::now();
    const int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark)
            .count();
    mark = now;
    return ns;
}

} // namespace ft

#endif // FLEXTENSOR_OBS_OBS_H
