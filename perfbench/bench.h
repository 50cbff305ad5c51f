/**
 * @file
 * Shared declarations of the repository benchmark harness.
 *
 * A workload turns a seed into inputs (the layers of the paper's §6.6
 * networks, YOLO-v1 and OverFeat, in a seeded order), sets itself up,
 * issues requests for a fixed wall-clock budget, and afterwards checks
 * its outputs against independent references. In a profiled run the
 * searches carry the library's own wall-profiling counters
 * (ObsContext::wallProfile); the few layers the library does not time
 * are replayed from the recorded inputs (replay.cc).
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "explore/tuner.h"
#include "graph/dag.h"
#include "obs/metrics.h"

namespace perfbench {

/** Monotonic wall clock in seconds. */
double nowSeconds();

/** One DAG a workload partitioned, with its device. */
struct DagJob
{
    ft::graph::ComputeDag dag;
    ft::Target target;
};

/** Inputs of the layers the library does not time, recorded in a run. */
struct ReplayLog
{
    /** Anchors whose schedule spaces the run built. */
    std::vector<std::pair<ft::Operation, ft::Target>> spaces;
    /** DAGs the run partitioned. */
    std::vector<DagJob> dags;
    /** Admission op keys, in request order. */
    std::vector<std::string> admissionKeys;
};

/** What the measured interval produced. */
struct MeasureStats
{
    /** Wall latency of every completed request, milliseconds. */
    std::vector<double> latencyMs;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Schedule measurements (trials) performed by the program. */
    uint64_t trials = 0;
    double wallSeconds = 0.0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build inputs and program state, then warm every lazy path. */
    virtual void setup() = 0;

    /** Issue requests until `seconds` of wall time have passed. */
    virtual void measure(double seconds, MeasureStats &stats) = 0;

    /** Check the outputs of measure(); false with a reason on error. */
    virtual bool check(std::string &why) = 0;

    /** Record the inputs of the layers the library does not time. */
    virtual void record(ReplayLog &log) const = 0;

    /** The program's metrics registry the workload's searches report to. */
    virtual ft::MetricsSnapshot counters() const = 0;
};

/**
 * The workload called `name` for `seed`, or null when unknown. With
 * `profile`, every search runs with the library's wall profiling on.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed, bool profile);

/**
 * Replay the recorded inputs through the layers the library does not
 * time. Returns (metric name, value) pairs: mean wall time per call of
 * schedule-space construction, admission and partitioning, 0 for a
 * layer the run did not call.
 */
std::vector<std::pair<std::string, double>>
replayLayers(const ReplayLog &log);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
