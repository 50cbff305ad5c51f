/**
 * @file
 * Observability overhead: wall-clock cost of the tracing/metrics layer
 * on a fixed 200-trial Q-method run, with sinks detached (the default)
 * and attached.
 *
 * Three configurations, identical seed/work:
 *   disabled   — null ObsContext (every emission site takes one branch)
 *   disabled2  — the same again: the run-to-run noise floor
 *   enabled    — TraceRecorder + MetricsRegistry attached
 *
 * Each configuration runs several times and keeps the minimum (least
 * scheduler noise). The disabled-path overhead budget is <1%, which by
 * construction means |disabled - disabled2| relative to disabled — the
 * instrumented-but-off code must be indistinguishable from noise.
 *
 * Results are appended to stdout and written to BENCH_obs.json.
 */
#include <chrono>
#include <cstdio>
#include <fstream>

#include "bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/ops.h"
#include "space/builder.h"

using namespace ft;

namespace {

Tensor
benchGemm()
{
    Tensor a = placeholder("A", {512, 512});
    Tensor b = placeholder("B", {512, 512});
    return ops::gemm(a, b);
}

/** One full exploration run; returns wall seconds. */
double
runOnce(const ObsContext &obs)
{
    Tensor out = benchGemm();
    Target target = Target::forGpu(v100());
    ScheduleSpace space = buildSpace(out.op(), target);
    Evaluator eval(out.op(), space, target);
    ExploreOptions options;
    options.trials = 200;
    options.seed = 0x0b5;
    options.obs = obs;
    auto start = std::chrono::steady_clock::now();
    ExploreResult r = explore(Method::QMethod, eval, options);
    auto stop = std::chrono::steady_clock::now();
    if (r.trialsUsed == 0)
        std::printf("warning: empty run\n");
    return std::chrono::duration<double>(stop - start).count();
}

double
best(const ObsContext &obs, int reps = 5)
{
    double min_s = runOnce(obs); // plus one untimed-in-spirit warm pass
    for (int i = 1; i < reps; ++i)
        min_s = std::min(min_s, runOnce(obs));
    return min_s;
}

} // namespace

int
main()
{
    ftbench::header("observability overhead (200-trial Q-method run)");

    ObsContext off;
    TraceRecorder trace;
    MetricsRegistry metrics;
    ObsContext on;
    on.trace = &trace;
    on.metrics = &metrics;

    const double disabled = best(off);
    const double disabled2 = best(off);
    const double enabled = best(on);

    const double noise_pct =
        100.0 * std::abs(disabled - disabled2) / disabled;
    const double enabled_pct = 100.0 * (enabled - disabled) / disabled;

    std::printf("disabled   %.4fs\n", disabled);
    std::printf("disabled2  %.4fs  (noise floor %.2f%%)\n", disabled2,
                noise_pct);
    std::printf("enabled    %.4fs  (overhead %.2f%%, %llu trace events)\n",
                enabled, enabled_pct,
                (unsigned long long)trace.eventCount());
    std::printf("budget: disabled-path overhead < 1%% (vs. noise floor)\n");

    std::ofstream json("BENCH_obs.json");
    json << "{\n"
         << "  \"bench\": \"micro_obs\",\n"
         << "  \"trials\": 200,\n"
         << "  \"disabled_seconds\": " << disabled << ",\n"
         << "  \"disabled_repeat_seconds\": " << disabled2 << ",\n"
         << "  \"enabled_seconds\": " << enabled << ",\n"
         << "  \"noise_floor_pct\": " << noise_pct << ",\n"
         << "  \"enabled_overhead_pct\": " << enabled_pct << ",\n"
         << "  \"trace_events\": " << trace.eventCount() << "\n"
         << "}\n";
    std::printf("-> BENCH_obs.json\n");
    return 0;
}
