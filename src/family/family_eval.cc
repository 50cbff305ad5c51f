#include "family/family_eval.h"

#include "obs/trace.h"
#include "support/logging.h"
#include "support/math_util.h"

namespace ft {

void
adaptSplitToExtent(OpConfig &config, int dynamicAxis, int64_t extent)
{
    FT_ASSERT(dynamicAxis >= 0 &&
                  dynamicAxis <
                      static_cast<int>(config.spatialSplits.size()),
              "dynamic axis ", dynamicAxis, " outside config");
    std::vector<int64_t> &row = config.spatialSplits[dynamicAxis];
    FT_ASSERT(!row.empty(), "empty split row");
    int64_t inner = 1;
    for (size_t lvl = 1; lvl < row.size(); ++lvl)
        inner *= row[lvl];
    row[0] = ceilDiv(extent, inner);
}

FamilyEvaluator::FamilyEvaluator(
    const ShapeFamily &family, Operation genericAnchor,
    const ScheduleSpace &space, Target target,
    const std::vector<std::pair<int64_t, double>> &instances)
    : Evaluator(std::move(genericAnchor), space, target),
      dynamicAxis_(family.dynamicAxis)
{
    FT_ASSERT(!instances.empty(), "family scoring needs >= 1 instance");
    double totalWeight = 0.0;
    for (const auto &[value, weight] : instances) {
        FT_ASSERT(weight > 0.0, "instance weights must be positive");
        anchors_.push_back(family.instanceAnchor(value));
        extents_.push_back(value);
        weights_.push_back(weight);
        totalWeight += weight;
    }
    for (double &w : weights_)
        w /= totalWeight;
}

double
FamilyEvaluator::score(const Point &p, EvalScratch &scratch,
                       bool traced) const
{
    TraceRecorder *trace = traced ? obs().trace : nullptr;
    // Each timed stage ends with one clock read, as in Evaluator::score;
    // the model query ends the instance's span without a counter.
    WallMark mark = decodeTimer_.start(trace);
    const OpConfig &generic = space().decodeInto(p, scratch.decode);
    decodeTimer_.lap(mark);
    double total = 0.0;
    for (size_t i = 0; i < anchors_.size(); ++i) {
        scratch.adapted = generic;
        adaptSplitToExtent(scratch.adapted, dynamicAxis_, extents_[i]);
        generateInto(anchors_[i], scratch.adapted, target(), scratch.sched);
        int64_t ns = lowerTimer_.lap(mark);
        const bool rejected = verifyRejects(scratch.adapted, scratch);
        ns += verifyTimer_.lap(mark);
        double gflops = 0.0;
        if (!rejected) {
            PerfResult perf = modelPerf(scratch.sched.features, target());
            gflops = perf.valid ? perf.gflops : 0.0;
        }
        ns += StageTimer().lap(mark);
        if (trace) {
            const double sim = simulatedSeconds();
            trace->begin("family.instance", sim);
            trace->end("family.instance", sim,
                       {tint("shape", extents_[i]), tint("ns", ns),
                        treal("gflops", gflops)});
        }
        if (gflops <= 0.0)
            return kInvalidGflops;
        total += weights_[i] * gflops;
    }
    return total;
}

} // namespace ft
