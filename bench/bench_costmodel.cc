/**
 * @file
 * Learned cost model: trials-to-parity with pruning + warm-start, and
 * transfer from a pretrained operator to a held-out one.
 *
 * For each workload (conv2d and gemm, on CPU and GPU) the harness runs
 *
 *  - baseline: the explorer with no cost model — records the full
 *    best-vs-trials curve and the trial count at which the run first
 *    reaches 95% of its final best ("parity");
 *  - pruned+warm: a model is pretrained on a separate run of the same
 *    workload, then a fresh exploration starts from the model's
 *    top-ranked points and prunes each step's candidates to the ranked
 *    top fraction — the claim is parity in <= 60% of the baseline's
 *    trials.
 *
 * The transfer section pretrains on conv2d only and evaluates gemm:
 * the conv2d-warmed run must beat a cold run that learns gemm online
 * from scratch (same pruning, same budget).
 *
 * Results go to stdout and BENCH_costmodel.json so CI can gate on the
 * parity ratio and track transfer quality.
 *
 * Usage:
 *   bench_costmodel [--trials N] [--reps R] [--keep F]
 *                   [--out BENCH_costmodel.json]
 */
#include "bench_util.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "explore/tuner.h"
#include "ml/costmodel.h"
#include "ops/ops.h"
#include "space/builder.h"

using namespace ft;

namespace {

struct Workload
{
    std::string op;
    Tensor out;
    Target target;

    std::string label() const { return op + "/" + target.deviceName(); }
};

std::vector<Workload>
buildWorkloads()
{
    std::vector<Workload> out;
    for (const Target &target :
         {Target::forGpu(v100()), Target::forCpu(xeonE5())}) {
        out.push_back({"conv2d", ops::yoloLayers()[7].build(), target});
        {
            Tensor a = placeholder("A", {256, 256});
            Tensor b = placeholder("B", {256, 256});
            out.push_back({"gemm", ops::gemm(a, b), target});
        }
    }
    return out;
}

/** One exploration run; the model (when given) is both consumer and
 *  trainee — the explorer records every measured trial into it. */
ExploreResult
runOnce(const Workload &w, int trials, uint64_t seed, CostModel *model,
        double prunerKeep)
{
    ScheduleSpace space = buildSpace(w.out.op(), w.target);
    Evaluator eval(w.out.op(), space, w.target);
    ExploreOptions options;
    options.trials = trials;
    options.warmupPoints = 8;
    options.seed = seed;
    options.costModel = model;
    options.prunerKeep = prunerKeep;
    return explore(Method::QMethod, eval, options);
}

/** Trial index (1-based) at which best-so-far first reaches
 *  `threshold`; 0 when the run never gets there. */
int
parityTrials(const ExploreResult &result, double threshold)
{
    for (size_t i = 0; i < result.curve.size(); ++i) {
        if (result.curve[i].second >= threshold)
            return static_cast<int>(i) + 1;
    }
    return 0;
}

struct WorkloadResult
{
    std::string op, device;
    double baseBest = 0.0, prunedBest = 0.0;
    int baseParity = 0, prunedParity = 0;
    double parityRatio = 0.0; ///< pruned / baseline trials-to-parity
    bool reached95 = false;
};

} // namespace

int
main(int argc, char **argv)
{
    int trials = 96, reps = 3;
    double keep = 0.25;
    std::string out_path = "BENCH_costmodel.json";

    for (int i = 1; i < argc; ++i) {
        auto arg = [&](const char *flag) {
            return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
        };
        if (arg("--trials")) {
            trials = std::atoi(argv[++i]);
        } else if (arg("--reps")) {
            reps = std::atoi(argv[++i]);
        } else if (arg("--keep")) {
            keep = std::atof(argv[++i]);
        } else if (arg("--out")) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
            return 1;
        }
    }

    ftbench::header("Learned cost model: pruned+warm vs baseline");
    ftbench::row({"workload", "base", "parity", "pruned", "parity",
                  "ratio"},
                 12);

    std::vector<WorkloadResult> results;
    for (const Workload &w : buildWorkloads()) {
        WorkloadResult r;
        r.op = w.op;
        r.device = w.target.deviceName();
        double base_parity_sum = 0.0, pruned_parity_sum = 0.0;
        int measured_reps = 0;
        bool reached_all = true;
        for (int rep = 0; rep < reps; ++rep) {
            const uint64_t seed =
                0xbc057ULL + static_cast<uint64_t>(rep) * 0x9e3779b9ULL;

            ExploreResult base =
                runOnce(w, trials, seed, nullptr, 0.0);
            const double threshold = 0.95 * base.bestGflops;
            const int base_parity = parityTrials(base, threshold);
            if (base_parity == 0)
                continue; // degenerate curve; skip the rep

            // Pretrain on a disjoint seed so the warmed run cannot
            // simply replay the training trajectory, then refit once
            // more to fold the training tail into the snapshot.
            CostModelOptions model_options;
            model_options.syncRefit = true;
            model_options.gbt.trees = 24;
            CostModel model(model_options);
            runOnce(w, trials, seed ^ 0x5eedULL, &model, 0.0);
            model.refitNow();

            ExploreResult pruned =
                runOnce(w, trials, seed, &model, keep);
            const int pruned_parity = parityTrials(pruned, threshold);
            reached_all = reached_all && pruned_parity > 0;

            r.baseBest = std::max(r.baseBest, base.bestGflops);
            r.prunedBest = std::max(r.prunedBest, pruned.bestGflops);
            base_parity_sum += base_parity;
            pruned_parity_sum +=
                pruned_parity > 0 ? pruned_parity : trials;
            ++measured_reps;
        }
        if (measured_reps > 0) {
            r.baseParity = static_cast<int>(base_parity_sum /
                                            measured_reps);
            r.prunedParity = static_cast<int>(pruned_parity_sum /
                                              measured_reps);
            r.parityRatio = base_parity_sum > 0.0
                                ? pruned_parity_sum / base_parity_sum
                                : 0.0;
            r.reached95 = reached_all;
        }
        results.push_back(r);
        ftbench::row({w.label(), ftbench::num(r.baseBest, 1),
                      std::to_string(r.baseParity),
                      ftbench::num(r.prunedBest, 1),
                      std::to_string(r.prunedParity),
                      ftbench::num(r.parityRatio, 3)},
                     12);
    }

    // Transfer: conv2d-pretrained model evaluated on held-out gemm,
    // against a cold model that learns gemm online during the run.
    ftbench::header("Transfer: conv2d-pretrained model on held-out gemm");
    const std::vector<Workload> workloads = buildWorkloads();
    const Workload &conv_gpu = workloads[0];
    const Workload &gemm_gpu = workloads[1];
    const uint64_t transfer_seed = 0x7a2157ULL;
    const int transfer_trials = std::max(8, trials / 2);

    CostModelOptions warm_options;
    warm_options.syncRefit = true;
    warm_options.gbt.trees = 24;
    CostModel warm_model(warm_options);
    runOnce(conv_gpu, trials, transfer_seed ^ 0x5eedULL, &warm_model,
            0.0);
    warm_model.refitNow();
    ExploreResult warm = runOnce(gemm_gpu, transfer_trials,
                                 transfer_seed, &warm_model, keep);

    CostModelOptions cold_options;
    cold_options.syncRefit = true;
    cold_options.refitEvery = 16;
    cold_options.gbt.trees = 24;
    CostModel cold_model(cold_options);
    ExploreResult cold = runOnce(gemm_gpu, transfer_trials,
                                 transfer_seed, &cold_model, keep);

    const bool warm_beats_cold = warm.bestGflops >= cold.bestGflops;
    std::printf("warm (conv2d-pretrained) %.1f GFLOPS vs cold %.1f "
                "GFLOPS in %d trials -> transfer %s\n",
                warm.bestGflops, cold.bestGflops, transfer_trials,
                warm_beats_cold ? "wins" : "LOSES");

    std::ofstream json(out_path);
    json << "{\n"
         << "  \"trials\": " << trials << ",\n"
         << "  \"reps\": " << reps << ",\n"
         << "  \"prune_keep\": " << keep << ",\n"
         << "  \"workloads\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const WorkloadResult &r = results[i];
        json << "    {\"op\": \"" << r.op << "\", \"device\": \""
             << r.device << "\", \"base_best\": " << r.baseBest
             << ", \"base_parity\": " << r.baseParity
             << ", \"pruned_best\": " << r.prunedBest
             << ", \"pruned_parity\": " << r.prunedParity
             << ", \"parity_ratio\": " << r.parityRatio
             << ", \"reached95\": " << (r.reached95 ? "true" : "false")
             << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"transfer\": {\"pretrained_on\": \"conv2d\", "
         << "\"held_out\": \"gemm\", \"device\": \""
         << gemm_gpu.target.deviceName()
         << "\", \"trials\": " << transfer_trials
         << ", \"warm_best\": " << warm.bestGflops
         << ", \"cold_best\": " << cold.bestGflops
         << ", \"warm_beats_cold\": "
         << (warm_beats_cold ? "true" : "false") << "}\n"
         << "}\n";
    std::printf("bench json -> %s\n", out_path.c_str());
    return 0;
}
