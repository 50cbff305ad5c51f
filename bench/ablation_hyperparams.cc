/**
 * @file
 * Hyperparameter sensitivity of the back-end (design-choice study):
 * the SA temperature gamma, the number of starting points per step, and
 * the Q-network training period (the paper trains every 5 trials).
 */
#include "bench_util.h"

using namespace ft;

namespace {

double
run(const Operation &anchor, const ScheduleSpace &space,
    const Target &target, const ExploreOptions &options)
{
    Evaluator eval(anchor, space, target);
    return explore(Method::QMethod, eval, options).bestGflops;
}

} // namespace

int
main()
{
    Target target = Target::forGpu(v100());
    const auto &layer = ops::yoloLayers()[7]; // C8
    MiniGraph graph(layer.build(1));
    Operation anchor = anchorOp(graph);
    ScheduleSpace space = buildSpace(anchor, target);

    ExploreOptions base;
    base.trials = 150;
    base.seed = 0xab3;

    ftbench::header("Ablation: SA temperature gamma (C8 on V100)");
    ftbench::row({"gamma", "GFLOPS"});
    for (double gamma : {0.0, 0.5, 1.0, 2.0, 4.0, 8.0}) {
        ExploreOptions opts = base;
        opts.saGamma = gamma;
        ftbench::row({ftbench::num(gamma, 1),
                      ftbench::num(run(anchor, space, target, opts), 0)});
    }

    ftbench::header("Ablation: starting points per step");
    ftbench::row({"starts", "GFLOPS", "trials"});
    for (int starts : {1, 2, 4, 8}) {
        ExploreOptions opts = base;
        opts.startingPoints = starts;
        opts.trials = 600 / starts; // constant measurement budget
        Evaluator eval(anchor, space, target);
        ExploreResult r = explore(Method::QMethod, eval, opts);
        ftbench::row({std::to_string(starts),
                      ftbench::num(r.bestGflops, 0),
                      std::to_string(r.trialsUsed)});
    }

    ftbench::header("Ablation: Q-network training period (paper: 5)");
    ftbench::row({"trainEvery", "GFLOPS"});
    for (int every : {1, 5, 20, 1000000}) {
        ExploreOptions opts = base;
        opts.trainEvery = every;
        ftbench::row({every > 1000 ? "never" : std::to_string(every),
                      ftbench::num(run(anchor, space, target, opts), 0)});
    }
    return 0;
}
