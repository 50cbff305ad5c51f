/**
 * @file
 * Layer replay for profiled runs, limited to the layers the library does
 * not time itself (decode, lowering, verification and the Q-network
 * forward pass report their own wall-profiling counters):
 *
 *   space_build  buildSpace()           per anchor the run tuned
 *   admission    admit()+onComplete()   per request, in request order
 *   partition    graph::partitionDag()  per DAG the run scheduled
 *
 * Each layer runs over the recorded inputs several times and reports the
 * median of its per-call means, so one slow pass does not set the
 * figure.
 */
#include <algorithm>
#include <cstdio>
#include <limits>

#include "bench.h"
#include "graph/partition.h"
#include "serve/admission.h"
#include "space/builder.h"

namespace perfbench {

using namespace ft;

namespace {

/** Passes over the recorded inputs per layer; the median is reported. */
constexpr int kPasses = 5;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Median over kPasses of the mean wall time of one of `calls` calls, in
 * `unit` seconds (1e-9 for ns); 0 when there is nothing to replay.
 */
template <typename Pass>
double
perCall(double unit, size_t calls, Pass &&pass)
{
    if (calls == 0)
        return 0.0;
    std::vector<double> means;
    for (int p = 0; p < kPasses; ++p) {
        const double t0 = nowSeconds();
        pass();
        means.push_back((nowSeconds() - t0) / static_cast<double>(calls) /
                        unit);
    }
    return median(means);
}

} // namespace

std::vector<std::pair<std::string, double>>
replayLayers(const ReplayLog &log)
{
    double sink = 0.0;
    const double space_build_us = perCall(1e-6, log.spaces.size(), [&] {
        for (const auto &[anchor, target] : log.spaces)
            sink += buildSpace(anchor, target).size();
    });

    // The service's admission policy (no deadlines, so nothing sheds) on
    // a synthetic clock.
    AdmissionOptions admission_options;
    admission_options.maxQueueDepth = 1024;
    admission_options.brownoutDepth = 1024;
    double clock = 0.0;
    const double admission_ns = perCall(1e-9, log.admissionKeys.size(), [&] {
        AdmissionController controller(admission_options);
        for (const std::string &key : log.admissionKeys) {
            const AdmissionDecision d = controller.admit(
                key, RequestPriority::Batch, clock,
                std::numeric_limits<double>::infinity());
            clock += 1e-3;
            controller.onComplete(key, d.ticket, clock, true);
        }
    });

    const double partition_us = perCall(1e-6, log.dags.size(), [&] {
        for (const DagJob &d : log.dags)
            sink += graph::partitionDag(d.dag, d.target).totalSeconds;
    });

    // Keeps the replayed results observable so no call is elided.
    if (sink == std::numeric_limits<double>::infinity())
        std::fprintf(stderr, "perfbench: unexpected replay sink\n");
    return {{"space_build_us", space_build_us},
            {"admission_ns", admission_ns},
            {"partition_us", partition_us}};
}

} // namespace perfbench
