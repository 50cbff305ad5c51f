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

#include <memory>

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
     * reorder/unroll exploration (the full space always has those
     * knobs). Used by the AutoTVM baseline. Implies pow2Splits.
     */
    bool templateRestricted = false;

    /** Restrict split factors to powers of two (ablation knob). */
    bool pow2Splits = false;

    /**
     * Also explore the GPU compute_at staging depth (off by default: the
     * paper's space fixes the staging point, and the extra dimension
     * measurably slows time-to-performance on the Fig. 6d protocol).
     */
    bool exploreCacheAt = false;

    /**
     * Shape-generic spaces: when non-empty, entry i (> 0) replaces the
     * extent of spatial axis i when enumerating split factors. The
     * family layer passes the padded (next power of two) upper bound of
     * a dynamic dimension here, so one split sub-space stays valid
     * across the whole declared shape range — the divisibility filter
     * is relaxed to the padded extent, and per-instance overshoot lowers
     * to an imperfect tile the verifier's interval prover gates instead.
     */
    std::vector<int64_t> spatialExtentOverride;

    /** Every field compares, so each one separates stored spaces. */
    bool operator==(const SpaceOptions &) const = default;
};

/** Build the schedule space of one compute node for a target. */
ScheduleSpace buildSpace(const Operation &anchor, const Target &target,
                         const SpaceOptions &options = {});

/**
 * The space buildSpace(anchor, target, options) builds, fetched from a
 * process-wide SetupStore (support/setup_store.h) keyed by exactly what
 * buildSpace reads: the device kind, the anchor's spatial and reduce
 * extents and every SpaceOptions field. The search set-up of every
 * single-op path (tune, tuneGraph, graph::tuneDag, TuningService,
 * tuneFamily) comes through here, so a repeated layer shape reuses its
 * space. Fetched inside a `space_build` trace span at sim time 0 (the
 * space exists before any measurement) whose end carries the space's
 * size, dims and directions, hit or miss alike. Under obs.wallProfile
 * the fetch's wall nanoseconds also go to the `space.build.ns` counter
 * and onto the span's end as `ns`.
 */
std::shared_ptr<const ScheduleSpace>
buildSpaceObserved(const Operation &anchor, const Target &target,
                   const SpaceOptions &options, const ObsContext &obs);

/** Spaces the store behind buildSpaceObserved holds now. */
size_t storedSpaces();

} // namespace ft

#endif // FLEXTENSOR_SPACE_BUILDER_H
