/**
 * @file
 * micro_explore_throughput — wall-clock throughput of the exploration
 * hot path (the framework overhead around each simulated measurement).
 *
 * Every measurement in this reproduction is an analytical-model query, so
 * trials/second of the *framework* — space decode, schedule lowering,
 * Q-network inference/training, evaluated-set membership — is the
 * wall-clock cost of every run (the paper's Section 5.2 budget is what
 * makes this the metric that matters). The harness runs conv2d and gemm
 * on the CPU and GPU models through all four explorers, reports
 * trials/sec and ns/trial, and emits BENCH_explore.json so CI can track
 * the numbers and a PR can quote before/after.
 *
 * Usage:
 *   micro_explore_throughput [--trials N] [--reps N] [--out file.json]
 *
 * The per-component breakdown (eval.decode/eval.lower/q_forward_batch
 * wall nanoseconds) comes from the hot-path wall timers when the build
 * provides them; the JSON carries every `*.ns` counter found.
 */
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"

using namespace ft;

namespace {

struct BenchCase
{
    std::string op;
    std::string device;
    std::string method;
    int trials = 0;       ///< measurements actually performed
    double wallNs = 0.0;  ///< best-of-reps wall time of the explorer call
    MetricsSnapshot metrics;
};

Tensor
makeOp(const std::string &name)
{
    if (name == "gemm") {
        Tensor a = placeholder("A", {256, 256});
        Tensor b = placeholder("B", {256, 256});
        return ops::gemm(a, b);
    }
    // conv2d: one mid-sized layer (N=1, C=64, H=W=56, K=64, 3x3).
    Tensor in = placeholder("I", {1, 64, 56, 56});
    Tensor w = placeholder("W", {64, 64, 3, 3});
    return ops::conv2d(in, w);
}

BenchCase
runCase(const std::string &op_name, const std::string &device,
        Method method, int trials, int reps)
{
    BenchCase out;
    out.op = op_name;
    out.device = device;
    out.method = methodName(method);

    Tensor t = makeOp(op_name);
    Target target = device == "cpu" ? Target::forCpu(xeonE5())
                                    : Target::forGpu(v100());
    SpaceOptions space_options;
    space_options.templateRestricted = method == Method::AutoTvm;

    for (int rep = 0; rep < reps; ++rep) {
        ScheduleSpace space = buildSpace(t.op(), target, space_options);
        Evaluator eval(t.op(), space, target);
        MetricsRegistry metrics;
        ExploreOptions options;
        options.trials = trials;
        options.seed = 0xbeac4;
        options.obs.metrics = &metrics;
        // Wall profiling feeds the per-component `*.ns` counters that
        // become the "components" map in the JSON output.
        options.obs.wallProfile = true;
        auto t0 = std::chrono::steady_clock::now();
        ExploreResult r = explore(method, eval, options);
        auto t1 = std::chrono::steady_clock::now();
        double ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        if (rep == 0 || ns < out.wallNs) {
            out.wallNs = ns;
            out.trials = r.trialsUsed;
            out.metrics = metrics.snapshot();
        }
    }
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

void
writeJson(const std::string &path, const std::vector<BenchCase> &cases)
{
    std::ofstream out(path);
    out << "{\"bench\":\"micro_explore_throughput\",\"cases\":[";
    for (size_t i = 0; i < cases.size(); ++i) {
        const BenchCase &c = cases[i];
        double per_trial = c.trials > 0 ? c.wallNs / c.trials : 0.0;
        double per_sec = c.wallNs > 0.0 ? c.trials / (c.wallNs * 1e-9) : 0.0;
        if (i)
            out << ",";
        out << "{\"op\":\"" << jsonEscape(c.op) << "\",\"device\":\""
            << jsonEscape(c.device) << "\",\"method\":\""
            << jsonEscape(c.method) << "\",\"trials\":" << c.trials
            << ",\"wallNs\":" << static_cast<int64_t>(c.wallNs)
            << ",\"nsPerTrial\":" << static_cast<int64_t>(per_trial)
            << ",\"trialsPerSec\":" << static_cast<int64_t>(per_sec)
            << ",\"components\":{";
        // Per-component wall nanoseconds (hot-path wall timers).
        bool first = true;
        for (const auto &[name, value] : c.metrics.counters) {
            if (name.size() < 3 ||
                name.compare(name.size() - 3, 3, ".ns") != 0) {
                continue;
            }
            if (!first)
                out << ",";
            first = false;
            out << "\"" << jsonEscape(name) << "\":" << value;
        }
        out << "}}";
    }
    out << "]}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    int trials = 120;
    int reps = 3;
    std::string out_path = "BENCH_explore.json";
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--trials") == 0)
            trials = std::atoi(argv[i + 1]);
        else if (std::strcmp(argv[i], "--reps") == 0)
            reps = std::atoi(argv[i + 1]);
        else if (std::strcmp(argv[i], "--out") == 0)
            out_path = argv[i + 1];
    }

    ftbench::header("exploration hot-path throughput");
    ftbench::row({"op", "device", "method", "trials", "ms", "ns/trial",
                  "trials/s"});

    std::vector<BenchCase> cases;
    const Method methods[] = {Method::QMethod, Method::PMethod,
                              Method::Random, Method::AutoTvm};
    for (const char *op : {"conv2d", "gemm"}) {
        for (const char *device : {"cpu", "gpu"}) {
            for (Method m : methods) {
                BenchCase c = runCase(op, device, m, trials, reps);
                double per_trial = c.trials ? c.wallNs / c.trials : 0.0;
                double per_sec =
                    c.wallNs > 0.0 ? c.trials / (c.wallNs * 1e-9) : 0.0;
                ftbench::row({c.op, c.device, c.method,
                              std::to_string(c.trials),
                              ftbench::num(c.wallNs * 1e-6, 1),
                              ftbench::num(per_trial, 0),
                              ftbench::num(per_sec, 0)});
                cases.push_back(std::move(c));
            }
        }
    }
    writeJson(out_path, cases);
    std::printf("\nbench json -> %s\n", out_path.c_str());
    return 0;
}
