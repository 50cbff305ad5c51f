/**
 * @file
 * Overload behavior of the admission-controlled serving path.
 *
 * An open-loop arrival process drives the TuningService's admitted
 * request path at several offered-load multiples of its measured
 * capacity (up to well past 2x). At each level the harness records what
 * graceful degradation actually delivers:
 *
 *  - p50/p99 wall latency of the requests that were served,
 *  - the shed rate (refused immediately with a structured reason),
 *  - brownout answers served degraded from the report cache.
 *
 * The expected shape: below capacity everything is admitted and latency
 * is flat; past capacity the shed rate absorbs the excess while served
 * latency stays bounded — the service degrades by answer *quality*
 * (refusals, cached answers), never by unbounded queueing delay.
 *
 * Results go to stdout and BENCH_overload.json for CI tracking.
 *
 * Usage:
 *   bench_overload [--requests N] [--trials N] [--threads N]
 *                  [--deadline-factor F] [--seed N]
 *                  [--out BENCH_overload.json]
 */
#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "serve/service.h"

using namespace ft;

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

Tensor
overloadGemm(int64_t n)
{
    Tensor a = placeholder("A", {n, n});
    Tensor b = placeholder("B", {n, n});
    return ops::gemm(a, b);
}

struct LevelResult
{
    double multiplier = 0.0;
    double offeredRps = 0.0;
    int requests = 0;
    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t brownout = 0;
    uint64_t brownoutServed = 0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double shedRate = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    int requests = 48, trials = 6, threads = 2;
    double deadline_factor = 6.0;
    uint64_t seed = 0x10adbe4c;
    std::string out_path = "BENCH_overload.json";

    for (int i = 1; i < argc; ++i) {
        auto arg = [&](const char *flag) {
            return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
        };
        if (arg("--requests")) {
            requests = std::atoi(argv[++i]);
        } else if (arg("--trials")) {
            trials = std::atoi(argv[++i]);
        } else if (arg("--threads")) {
            threads = std::atoi(argv[++i]);
        } else if (arg("--deadline-factor")) {
            deadline_factor = std::atof(argv[++i]);
        } else if (arg("--seed")) {
            seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg("--out")) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
            return 1;
        }
    }

    Target target = Target::forGpu(v100());
    TuneOptions tune_options;
    tune_options.method = Method::Random;
    tune_options.explore.trials = trials;

    // Measure single-request service time to calibrate offered load.
    double service_seconds;
    {
        ServiceOptions service_options;
        service_options.evalThreads = 2;
        service_options.requestThreads = 1;
        TuningService probe(service_options);
        TuneOptions warm = tune_options;
        warm.explore.seed = seed;
        const double t0 = nowSeconds();
        probe.tune(overloadGemm(96), target, warm);
        service_seconds = std::max(1e-4, nowSeconds() - t0);
    }
    const double capacity_rps = threads / service_seconds;

    ftbench::header("Overload resilience of the admitted serving path");
    std::printf("service time %.1f ms/request, capacity %.1f req/s "
                "(%d workers)\n",
                service_seconds * 1e3, capacity_rps, threads);

    const std::vector<double> multipliers = {0.5, 1.0, 2.0, 4.0};
    std::vector<LevelResult> levels;

    for (double mult : multipliers) {
        ServiceOptions service_options;
        service_options.evalThreads = 2;
        service_options.requestThreads = threads;
        service_options.admission.maxQueueDepth =
            static_cast<size_t>(2 * threads + 2);
        service_options.admission.brownoutDepth =
            static_cast<size_t>(2 * threads);
        service_options.admission.interactiveReserve = 1;
        service_options.admission.defaultCostSeconds = service_seconds;
        TuningService service(service_options);

        const double interarrival =
            1.0 / (capacity_rps * mult); // open loop: fixed spacing
        const double deadline = deadline_factor * service_seconds;

        std::vector<std::future<AdmittedReport>> futures;
        std::vector<double> submitted_at;
        const double start = nowSeconds();
        for (int i = 0; i < requests; ++i) {
            const double due = start + i * interarrival;
            while (nowSeconds() < due)
                std::this_thread::yield();
            TuneOptions options = tune_options;
            options.explore.seed = seed + static_cast<uint64_t>(i) + 1;
            // A rotating shape mix keeps the LRU from absorbing the load.
            Tensor out = overloadGemm(64 + 32 * (i % 4));
            submitted_at.push_back(nowSeconds());
            futures.push_back(service.submitAdmitted(
                out, target, options,
                {i % 4 == 0 ? RequestPriority::Interactive
                            : RequestPriority::Batch,
                 deadline}));
        }

        LevelResult level;
        level.multiplier = mult;
        level.offeredRps = capacity_rps * mult;
        level.requests = requests;
        std::vector<double> served_ms;
        for (int i = 0; i < requests; ++i) {
            AdmittedReport report = futures[static_cast<size_t>(i)].get();
            const double latency_ms =
                (nowSeconds() - submitted_at[static_cast<size_t>(i)]) *
                1e3;
            switch (report.outcome) {
              case AdmissionOutcome::Admitted:
                ++level.admitted;
                served_ms.push_back(latency_ms);
                break;
              case AdmissionOutcome::Brownout:
                ++level.brownout;
                if (report.served()) {
                    ++level.brownoutServed;
                    served_ms.push_back(latency_ms);
                }
                break;
              case AdmissionOutcome::Shed:
              case AdmissionOutcome::BreakerOpen:
                ++level.shed;
                break;
            }
        }
        level.p50Ms = percentile(served_ms, 0.50);
        level.p99Ms = percentile(served_ms, 0.99);
        level.shedRate =
            static_cast<double>(level.shed + level.brownout -
                                level.brownoutServed) /
            requests;
        levels.push_back(level);
    }

    ftbench::row({"load", "offered/s", "admitted", "shed", "brownout",
                  "p50 ms", "p99 ms", "shed rate"},
                 11);
    for (const LevelResult &l : levels) {
        ftbench::row({ftbench::num(l.multiplier, 1) + "x",
                      ftbench::num(l.offeredRps, 1),
                      std::to_string(l.admitted), std::to_string(l.shed),
                      std::to_string(l.brownout), ftbench::num(l.p50Ms, 1),
                      ftbench::num(l.p99Ms, 1),
                      ftbench::num(l.shedRate, 3)},
                     11);
    }

    std::ofstream json(out_path);
    json << "{\n"
         << "  \"device\": \"" << target.deviceName() << "\",\n"
         << "  \"requests_per_level\": " << requests << ",\n"
         << "  \"trials_per_request\": " << trials << ",\n"
         << "  \"workers\": " << threads << ",\n"
         << "  \"service_seconds\": " << service_seconds << ",\n"
         << "  \"capacity_rps\": " << capacity_rps << ",\n"
         << "  \"levels\": [\n";
    for (size_t i = 0; i < levels.size(); ++i) {
        const LevelResult &l = levels[i];
        json << "    {\"multiplier\": " << l.multiplier
             << ", \"offered_rps\": " << l.offeredRps
             << ", \"admitted\": " << l.admitted
             << ", \"shed\": " << l.shed
             << ", \"brownout\": " << l.brownout
             << ", \"brownout_served\": " << l.brownoutServed
             << ", \"p50_ms\": " << l.p50Ms
             << ", \"p99_ms\": " << l.p99Ms
             << ", \"shed_rate\": " << l.shedRate << "}"
             << (i + 1 < levels.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("bench json -> %s\n", out_path.c_str());
    return 0;
}
