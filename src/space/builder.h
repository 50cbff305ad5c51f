/**
 * @file
 * Schedule-space construction from front-end analysis (Section 4.2).
 *
 * The space is pruned three ways, as in the paper: primitive-combination
 * depth is bounded by the per-target tiling skeleton, split factors are
 * restricted to divisible splits, and hardware-specific decisions (what is
 * parallelized / bound / vectorized) are pre-determined by the skeleton.
 */
#ifndef FLEXTENSOR_SPACE_BUILDER_H
#define FLEXTENSOR_SPACE_BUILDER_H

#include "analysis/static_analyzer.h"
#include "obs/obs.h"
#include "sim/hw_spec.h"
#include "space/space.h"

namespace ft {

/** Space-construction options. */
struct SpaceOptions
{
    /**
     * Build the restricted, AutoTVM-style template space instead of the
     * full FlexTensor space: power-of-two split factors only and no
     * reorder/unroll exploration. Used by the baseline in explore/autotvm.
     * Implies pow2Splits and disables reorder/unroll knobs.
     */
    bool templateRestricted = false;

    /** Restrict split factors to powers of two (ablation knob). */
    bool pow2Splits = false;

    /** Include the reorder/unroll knobs (ablation knob). */
    bool exploreReorderUnroll = true;

    /**
     * Also explore the GPU compute_at staging depth (off by default: the
     * paper's space fixes the staging point, and the extra dimension
     * measurably slows time-to-performance on the Fig. 6d protocol).
     */
    bool exploreCacheAt = false;

    /**
     * Shape-generic spaces: when non-empty, entry i (> 0) replaces the
     * extent of spatial/reduce axis i when enumerating split factors.
     * The family layer passes the padded (next power of two) upper
     * bound of a dynamic dimension here, so one split sub-space stays
     * valid across the whole declared shape range — the divisibility
     * filter is relaxed to the padded extent, and per-instance
     * overshoot lowers to an imperfect tile the verifier's interval
     * prover gates instead.
     */
    std::vector<int64_t> spatialExtentOverride;
    std::vector<int64_t> reduceExtentOverride;
};

/** Build the schedule space of one compute node for a target. */
ScheduleSpace buildSpace(const Operation &anchor, const Target &target,
                         const SpaceOptions &options = {});

/**
 * buildSpace inside a `space_build` trace span at sim time 0 (the space
 * is built before any measurement); the span's end carries the space's
 * size, dims and directions. Under obs.wallProfile the build's wall
 * nanoseconds also go to the `space.build.ns` counter and onto the
 * span's end as `ns`.
 */
ScheduleSpace buildSpaceObserved(const Operation &anchor,
                                 const Target &target,
                                 const SpaceOptions &options,
                                 const ObsContext &obs);

} // namespace ft

#endif // FLEXTENSOR_SPACE_BUILDER_H
