/**
 * @file
 * Joint (shape-family) candidate scoring.
 *
 * A FamilyEvaluator scores each candidate point of a shape-generic
 * space on k sampled shape instances: the decoded generic config's
 * dynamic-axis split is re-fit to each instance extent (imperfect tiles
 * allowed — the verifier's interval prover gates them), each instance
 * is lowered and scored through the existing device models, and the
 * per-instance GFLOPS aggregate into a weighted family score. Because
 * only Evaluator::score() is overridden, every explorer and the batched
 * measurement layer (ResilientEvaluator) work on families unchanged.
 */
#ifndef FLEXTENSOR_FAMILY_FAMILY_EVAL_H
#define FLEXTENSOR_FAMILY_FAMILY_EVAL_H

#include <cstdint>
#include <utility>
#include <vector>

#include "explore/evaluator.h"
#include "family/family.h"

namespace ft {

/**
 * Re-fit the dynamic axis's split row of a generic config to one
 * concrete extent: inner tile factors stay, the outermost factor
 * becomes ceil(extent / inner tile). The result overshoots the extent
 * by at most one tile (an imperfect tile the executors guard).
 */
void adaptSplitToExtent(OpConfig &config, int dynamicAxis, int64_t extent);

class FamilyEvaluator : public Evaluator
{
  public:
    /**
     * @param family the shape family being tuned
     * @param genericAnchor anchor the generic space was built from
     *        (becomes the base evaluator's anchor)
     * @param space the shape-generic schedule space (must outlive this)
     * @param target the device to model
     * @param instances sampled (shape value, weight) pairs jointly
     *        scored per candidate; weights are normalized internally
     */
    FamilyEvaluator(const ShapeFamily &family, Operation genericAnchor,
                    const ScheduleSpace &space, Target target,
                    const std::vector<std::pair<int64_t, double>> &instances);

    /**
     * Weighted family score of a point: sum_i w_i * GFLOPS_i over the
     * sampled instances, or kInvalidGflops when any instance is gated
     * by the verifier or rejected by the model (a family schedule must
     * be legal on every shape it serves). Under obs().wallProfile the
     * point's decode, and each instance's lowering and verification,
     * add to the same eval.*.ns counters Evaluator::score fills. With
     * `traced` set, each sampled shape becomes one "family.instance"
     * span carrying the shape value and wall nanoseconds, which the
     * trace-report phase breakdown folds like any other span.
     */
    double score(const Point &p, EvalScratch &scratch,
                 bool traced) const override;

    /** Sampled shape values, in scoring order. */
    const std::vector<int64_t> &extents() const { return extents_; }

  private:
    int dynamicAxis_;
    std::vector<Operation> anchors_;
    std::vector<int64_t> extents_;
    std::vector<double> weights_;
};

} // namespace ft

#endif // FLEXTENSOR_FAMILY_FAMILY_EVAL_H
