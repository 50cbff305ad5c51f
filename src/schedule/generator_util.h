/**
 * @file
 * Shared helpers for the schedule generators (internal header).
 */
#ifndef FLEXTENSOR_SCHEDULE_GENERATOR_UTIL_H
#define FLEXTENSOR_SCHEDULE_GENERATOR_UTIL_H

#include <vector>

#include "analysis/index_analysis.h"
#include "ir/operation.h"
#include "schedule/loop_nest.h"

namespace ft {
namespace gen {

/**
 * Per-slot variable ranges (IndexAnalysis slots: axes, then reduce
 * axes) where the split levels satisfying `isFree(reduce, level)` span
 * their full range and all others are pinned to zero. The range of an
 * original variable is the stride-weighted sum of its free levels.
 */
template <class Free>
void
rangesWithFree(const OpConfig &config, Free isFree, Interval *ranges)
{
    size_t slot = 0;
    for (const auto *rows : {&config.spatialSplits, &config.reduceSplits}) {
        const bool reduce = rows == &config.reduceSplits;
        for (const auto &row : *rows) {
            int64_t hi = 0, stride = 1;
            for (size_t lvl = row.size(); lvl-- > 0;) {
                if (isFree(reduce, static_cast<int>(lvl)))
                    hi += (row[lvl] - 1) * stride;
                stride *= row[lvl];
            }
            ranges[slot++] = Interval{0, hi};
        }
    }
}

/**
 * Sum of the footprints of every body access under `ranges`, in bytes
 * of fp32; the per-access cells are left in `cells`.
 */
int64_t footprintBytes(const IndexAnalysis &ia, const Interval *ranges,
                       int64_t *cells, Interval *firstLast = nullptr);

/**
 * Write level `level` of a slot's split `row` into `l` in place, as
 * splitLoop would build it, with annotation `anno`. Reuses the storage
 * of `l.name`.
 */
void setSubLoop(SubLoop &l, const IndexAnalysis &ia, size_t slot,
                const std::vector<int64_t> &row, int level,
                LoopAnno anno = LoopAnno::Serial);

/**
 * Validate that split rows match the op's loops and multiply to at
 * least each loop's extent (exactly for divisible splits; an overshoot
 * is an imperfect tile the executors guard).
 */
void checkSplits(const ComputeOp *op, const OpConfig &config,
                 int spatial_levels, int reduce_levels);

/**
 * Record on the nest every original axis whose split overshoots its
 * extent (see LoopNest::guardedAxes). Clears any previous recording, so
 * the nest-reusing generate*Into paths stay correct.
 */
void recordGuardedAxes(const ComputeOp *op, const OpConfig &config,
                       LoopNest &nest);

} // namespace gen
} // namespace ft

#endif // FLEXTENSOR_SCHEDULE_GENERATOR_UTIL_H
