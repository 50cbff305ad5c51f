/**
 * @file
 * perfbench-harness — runs one benchmark workload and prints its result.
 *
 * Usage:
 *   perfbench-harness --workload <dnn_graph|serve_mix>
 *                     --seed <n> --seconds <s> --trace <0|1>
 *
 * Set-up (inputs, program state, one warm pass) runs kSetupRuns times on
 * fresh state; setup_s is the median. The last set-up is then measured
 * for --seconds and its outputs are checked. With --trace 0 the result
 * carries the end-to-end metrics over every request of the interval;
 * with --trace 1 the searches run with the library's wall profiling on
 * and the result carries per-layer metrics: the library's own counters
 * over the interval, plus a replay of the layers it does not time
 * (replay.cc). The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

using namespace perfbench;

namespace {

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupRuns = 5;

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Nearest-rank percentile of an unsorted sample (p in [0, 1]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::min(std::max<size_t>(rank, 1), v.size()) - 1];
}

/**
 * Mean of a sample. Reported instead of the median: a dnn_graph request
 * is always the same work, so its latencies sit in one narrow peak per
 * host speed, and a median jumps between the peaks from run to run where
 * a mean moves with the share of each.
 */
double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20)
            out.push_back(c);
    }
    return out;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", jsonEscape(metrics[i].name).c_str(),
                    metrics[i].value, jsonEscape(metrics[i].unit).c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/** Per-layer metrics from the program's counters over the interval. */
std::vector<Metric>
counterMetrics(const ft::MetricsSnapshot &before,
               const ft::MetricsSnapshot &after)
{
    auto delta = [&](const char *name) {
        return static_cast<double>(after.counter(name) -
                                   before.counter(name));
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    // Every evaluation decodes, lowers and verifies its point once.
    const double evals = delta("verify.checked");
    return {
        {"decode_ns", ratio(delta("eval.decode.ns"), evals), "ns"},
        {"lower_ns", ratio(delta("eval.lower.ns"), evals), "ns"},
        {"verify_ns", ratio(delta("eval.verify.ns"), evals), "ns"},
        {"qnet_forward_ns",
         ratio(delta("q.forward_batch.ns"), delta("explore.steps")), "ns"},
        {"evaluations", evals, "count"},
        {"verify_rejects", delta("verify.rejected"), "count"},
        {"result_cache_hits", delta("service.result_cache_hits"), "count"},
    };
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench-harness --workload <dnn_graph|serve_mix> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--workload") == 0)
            workload_name = argv[i + 1];
        else if (std::strcmp(argv[i], "--seed") == 0)
            seed = std::strtoull(argv[i + 1], nullptr, 0);
        else if (std::strcmp(argv[i], "--seconds") == 0)
            seconds = std::atof(argv[i + 1]);
        else if (std::strcmp(argv[i], "--trace") == 0)
            trace = std::atoi(argv[i + 1]);
        else
            return usage();
    }
    const bool profile = trace == 1;
    if (argc % 2 == 0 || seconds <= 0.0 || (trace != 0 && trace != 1) ||
        !makeWorkload(workload_name, seed, profile))
        return usage();

    std::unique_ptr<Workload> workload;
    std::vector<double> setup_times;
    for (int r = 0; r < kSetupRuns; ++r) {
        workload.reset();
        const double t0 = nowSeconds();
        workload = makeWorkload(workload_name, seed, profile);
        workload->setup();
        setup_times.push_back(nowSeconds() - t0);
    }

    const ft::MetricsSnapshot before = workload->counters();
    MeasureStats stats;
    workload->measure(seconds, stats);
    const ft::MetricsSnapshot after = workload->counters();
    std::string why;
    const bool correct = workload->check(why) && stats.attempted > 0;
    if (!correct)
        std::fprintf(stderr, "perfbench: output check failed: %s\n",
                     why.c_str());

    const double wall = std::max(stats.wallSeconds, 1e-9);
    std::vector<Metric> metrics;
    if (!profile) {
        metrics = {
            {"latency_mean_ms", mean(stats.latencyMs), "ms"},
            {"latency_p90_ms", percentile(stats.latencyMs, 0.90), "ms"},
            {"throughput_rps",
             static_cast<double>(stats.attempted - stats.failed) / wall,
             "1/s"},
            {"trials_per_s", static_cast<double>(stats.trials) / wall, "1/s"},
            {"setup_s", percentile(setup_times, 0.50), "s"},
        };
    } else {
        metrics = counterMetrics(before, after);
        ReplayLog log;
        workload->record(log);
        for (const auto &[name, value] : replayLayers(log))
            metrics.push_back({name, value, name.substr(name.rfind('_') + 1)});
        metrics.push_back({"requests", static_cast<double>(stats.attempted),
                           "count"});
        metrics.push_back({"trials", static_cast<double>(stats.trials),
                           "count"});
    }
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %llu requests (%llu failed), "
                 "%llu trials in %.2f s\n",
                 workload_name.c_str(), static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(stats.attempted),
                 static_cast<unsigned long long>(stats.failed),
                 static_cast<unsigned long long>(stats.trials),
                 stats.wallSeconds);
    printResult(correct, stats.attempted, stats.failed, metrics);
    return 0;
}
