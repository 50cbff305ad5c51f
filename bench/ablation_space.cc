/**
 * @file
 * Space ablation (design-choice study from DESIGN.md): how much of
 * FlexTensor's advantage comes from the *space* rather than the search?
 *
 * The same Q-method budget runs over three spaces per layer:
 *   full        all divisible splits + reorder/unroll knobs
 *   pow2        power-of-two splits only, knobs kept
 *   template    pow2 splits, no reorder/unroll (the AutoTVM-style space)
 *
 * This isolates the paper's Section 6.5 claim that template-restricted
 * spaces leave performance on the table (2027x fewer points).
 */
#include "bench_util.h"

using namespace ft;

namespace {

double
tuneOn(const Operation &anchor, const Target &target,
       const SpaceOptions &space_options, uint64_t seed)
{
    ScheduleSpace space = buildSpace(anchor, target, space_options);
    Evaluator eval(anchor, space, target);
    ExploreOptions opts;
    opts.trials = 150;
    opts.seed = seed;
    return explore(Method::QMethod, eval, opts).bestGflops;
}

} // namespace

int
main()
{
    ftbench::header("Ablation: schedule-space restrictions (V100)");
    ftbench::row({"layer", "full", "pow2", "template", "tmpl/full"});

    Target target = Target::forGpu(v100());
    std::vector<double> template_rel;
    for (int id : {1, 5, 9, 13}) { // C2, C6, C10, C14
        const auto &layer = ops::yoloLayers()[id];
        MiniGraph graph(layer.build(1));
        Operation anchor = anchorOp(graph);
        uint64_t seed = 0xab2 + id;

        SpaceOptions full;
        SpaceOptions pow2;
        pow2.pow2Splits = true;
        SpaceOptions tmpl;
        tmpl.templateRestricted = true;

        double g_full = tuneOn(anchor, target, full, seed);
        double g_pow2 = tuneOn(anchor, target, pow2, seed);
        double g_tmpl = tuneOn(anchor, target, tmpl, seed);
        template_rel.push_back(g_tmpl / g_full);
        ftbench::row({layer.name, ftbench::num(g_full, 0),
                      ftbench::num(g_pow2, 0), ftbench::num(g_tmpl, 0),
                      ftbench::num(g_tmpl / g_full)});
    }
    std::printf("\ntemplate-space quality relative to the full space: "
                "%.2f (the paper's Q-method final advantage over AutoTVM "
                "is 1.54x, i.e. ~0.65 in this direction)\n",
                ftbench::geomean(template_rel));
    return 0;
}
