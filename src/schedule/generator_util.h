/**
 * @file
 * Shared helpers for the schedule generators (internal header).
 */
#ifndef FLEXTENSOR_SCHEDULE_GENERATOR_UTIL_H
#define FLEXTENSOR_SCHEDULE_GENERATOR_UTIL_H

#include <functional>
#include <vector>

#include "analysis/bounds.h"
#include "ir/operation.h"
#include "schedule/loop_nest.h"

namespace ft {
namespace gen {

/**
 * Build variable ranges where sub-loops satisfying `isFree` span their full
 * range and all others are pinned to zero. The range of an original
 * variable is the stride-weighted sum of its free sub-loops.
 */
VarRanges rangesWithFree(const ComputeOp *op,
                         const std::vector<SubLoop> &loops,
                         const std::function<bool(const SubLoop &)> &isFree);

/** Footprint of one input access under the given ranges, in elements. */
struct InputFootprint
{
    const ExprNode *accessNode;
    int64_t cells;
};

/** Footprints of all body accesses under the given ranges. */
std::vector<InputFootprint> inputFootprints(const ComputeOp *op,
                                            const VarRanges &ranges);

/** Sum of the footprints, in bytes of fp32. */
int64_t footprintBytes(const std::vector<InputFootprint> &fps);

/**
 * Validate that split rows match the op's loops and multiply to at
 * least each loop's extent (exactly for divisible splits; an overshoot
 * is an imperfect tile the executors guard).
 */
void checkSplits(const ComputeOp *op, const OpConfig &config,
                 int spatial_levels, int reduce_levels);

/**
 * Record on the nest every original axis whose sub-loops overshoot its
 * extent (see LoopNest::guardedAxes). Clears any previous recording, so
 * the nest-reusing generate*Into paths stay correct.
 */
void recordGuardedAxes(const ComputeOp *op, LoopNest &nest);

} // namespace gen
} // namespace ft

#endif // FLEXTENSOR_SCHEDULE_GENERATOR_UTIL_H
