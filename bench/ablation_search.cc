/**
 * @file
 * Search-component ablation (design-choice study from DESIGN.md): how
 * much do the two halves of the paper's back-end — SA starting-point
 * selection and the Q-network direction policy — each contribute?
 *
 * Variants, all with the same measurement budget:
 *   full        SA starts + Q-learned directions (the paper's Q-method)
 *   no-Q        SA starts + uniformly random directions
 *   no-SA       random starts + Q-learned directions
 *   random      uniform random sampling of the space
 */
#include "bench_util.h"

#include "explore/sa.h"
#include "nn/mlp.h"
#include "support/rng.h"

using namespace ft;

namespace {

constexpr int kBudget = 400; // measurements per variant

/** SA starts + random directions (strip the Q-network out). */
double
runNoQ(const Operation &anchor, const ScheduleSpace &space,
       const Target &target, uint64_t seed)
{
    Evaluator eval(anchor, space, target);
    Rng rng(seed);
    for (int i = 0; i < 16; ++i)
        eval.evaluate(space.randomPoint(rng));
    SaChooser chooser(2.0);
    while (eval.numTrials() < kBudget) {
        Point start = chooser.choose(eval, rng);
        for (int attempt = 0; attempt < 8; ++attempt) {
            int dir = static_cast<int>(rng.below(space.numDirections()));
            auto next = space.move(start, dir);
            if (next && !eval.known(*next)) {
                eval.evaluate(*next);
                break;
            }
        }
    }
    return eval.best();
}

/** Random starts + Q-learned directions (strip SA out). */
double
runNoSa(const Operation &anchor, const ScheduleSpace &space,
        const Target &target, uint64_t seed)
{
    Evaluator eval(anchor, space, target);
    Rng rng(seed);
    Mlp net({space.featureDim(), 64, 64, 64, space.numDirections()}, rng);
    int steps = 0;
    while (eval.numTrials() < kBudget) {
        // Random start instead of SA selection.
        Point start = space.randomPoint(rng);
        auto feat = space.features(start);
        std::vector<float> x(feat.begin(), feat.end());
        auto q = net.forward(x);
        int best_dir = 0;
        for (int d = 1; d < space.numDirections(); ++d) {
            if (q[d] > q[best_dir])
                best_dir = d;
        }
        if (rng.chance(0.1))
            best_dir = static_cast<int>(rng.below(space.numDirections()));
        auto next = space.move(start, best_dir);
        if (!next)
            continue;
        double e_start = eval.evaluate(start);
        double e_next = eval.evaluate(*next);
        float reward = static_cast<float>((e_next - e_start) /
                                          std::max(e_start, 1e-9));
        if (++steps % 5 == 0) {
            net.zeroGrad();
            net.accumulateGrad(x, best_dir, reward);
            net.step();
        }
    }
    return eval.best();
}

} // namespace

int
main()
{
    ftbench::header("Ablation: search components (V100, C2D layers)");
    ftbench::row({"layer", "full", "no-Q", "no-SA", "random"});

    const int shape_ids[] = {3, 7, 12}; // C4, C8, C13
    std::vector<double> rel_noq, rel_nosa, rel_rand;
    for (int id : shape_ids) {
        const auto &layer = ops::yoloLayers()[id];
        MiniGraph graph(layer.build(1));
        Operation anchor = anchorOp(graph);
        Target target = Target::forGpu(v100());
        ScheduleSpace space = buildSpace(anchor, target);
        uint64_t seed = 0xab1 + id;

        // full Q-method with the same budget.
        Evaluator full_eval(anchor, space, target);
        ExploreOptions opts;
        opts.trials = kBudget / 4; // ~2 evals per starting point
        opts.seed = seed;
        double full = explore(Method::QMethod, full_eval, opts).bestGflops;

        double noq = runNoQ(anchor, space, target, seed);
        double nosa = runNoSa(anchor, space, target, seed);

        Evaluator rand_eval(anchor, space, target);
        ExploreOptions rand_opts;
        rand_opts.trials = kBudget;
        rand_opts.seed = seed;
        double random =
            explore(Method::Random, rand_eval, rand_opts).bestGflops;

        rel_noq.push_back(noq / full);
        rel_nosa.push_back(nosa / full);
        rel_rand.push_back(random / full);
        ftbench::row({layer.name, ftbench::num(full, 0),
                      ftbench::num(noq, 0), ftbench::num(nosa, 0),
                      ftbench::num(random, 0)});
    }
    std::printf("\nmean quality relative to the full method: no-Q %.2f, "
                "no-SA %.2f, random %.2f\n",
                ftbench::geomean(rel_noq), ftbench::geomean(rel_nosa),
                ftbench::geomean(rel_rand));
    std::printf("(SA start selection is the main quality lever at a fixed "
                "budget; the Q-network's contribution is time-to-"
                "performance, quantified in fig6d_exploration_time)\n");
    return 0;
}
