/**
 * @file
 * The transformed loop nest a schedule produces, plus the static features
 * the performance models consume.
 *
 * Splitting a loop of extent L into factors [f1, ..., fn] yields n sub-loops
 * with strides (f2*...*fn, ..., fn, 1); the original index is the stride-
 * weighted sum of the sub-loop variables. The nest preserves semantics by
 * construction — the interpreter in exec/ executes it directly and is
 * checked against the reference executor in tests.
 */
#ifndef FLEXTENSOR_SCHEDULE_LOOP_NEST_H
#define FLEXTENSOR_SCHEDULE_LOOP_NEST_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/operation.h"
#include "schedule/config.h"
#include "sim/hw_spec.h"

namespace ft {

/** How a sub-loop is realized on the target. */
enum class LoopAnno {
    Serial,
    Parallel,  ///< CPU worker threads (collapsed with adjacent Parallel)
    Vectorize, ///< CPU SIMD lanes
    Unroll,
    BlockX,    ///< GPU: bound to the block grid (fused across axes)
    VThread,   ///< GPU: virtual thread (ILP) level
    ThreadX,   ///< GPU: bound to threads within a block
    PE         ///< FPGA: spatially replicated processing elements
};

/** One loop of the transformed nest (outer-to-inner order in LoopNest). */
struct SubLoop
{
    std::string name;
    int64_t extent;
    LoopAnno anno = LoopAnno::Serial;
    /** Original iteration variable this sub-loop was split from. */
    const IterVarNode *origin = nullptr;
    /** Contribution of this sub-loop to the original index. */
    int64_t stride = 1;
    /** Tiling level within its original loop (0 = outermost). */
    int level = 0;
};

/** A fully lowered schedule for one compute node. */
struct LoopNest
{
    Operation op;               ///< the scheduled compute node
    std::vector<SubLoop> loops; ///< outer to inner

    /**
     * Original axes whose sub-loops overshoot the axis extent (an
     * "imperfect tile": the split factors multiply past the extent, as
     * happens when one schedule serves a whole shape family and a
     * dynamic dimension is not divisible by the tile). Executors and
     * emitters guard the loop body with `value < extent` for exactly
     * these axes; the bounds prover clamps their realized ranges under
     * the same contract.
     */
    std::vector<const IterVarNode *> guardedAxes;

    /** Whether `origin` is one of the guarded (imperfectly tiled) axes. */
    bool isGuarded(const IterVarNode *origin) const;

    /** Product of the extents of loops with the given annotation. */
    int64_t extentOf(LoopAnno anno) const;
};

/** Static features extracted by the generators for the models. */
struct NestFeatures
{
    bool valid = true;
    std::string invalidReason;

    double totalFlops = 0.0;
    int64_t outputElems = 0;
    int64_t unrollSteps = 1;

    // GPU.
    int64_t grid = 1;
    int64_t threadsPerBlock = 1;
    int64_t vthreads = 1;
    int64_t workPerThread = 1;
    int64_t regsPerThread = 32;
    int64_t sharedBytesPerBlock = 0;
    int64_t dramBytes = 0;
    double coalesceFactor = 1.0;
    double bankConflictPenalty = 1.0;

    // CPU.
    int64_t parallelExtent = 1;
    int vecLen = 1;
    int64_t l1TileBytes = 0;
    int64_t l2TileBytes = 0;
    int64_t cpuDramBytes = 0;

    // FPGA.
    int64_t pe = 1;
    int64_t bufferBytes = 0;
    int partition = 1;
    double readBytesPerRound = 0.0;
    double writeBytesPerRound = 0.0;
    double flopsPerRound = 0.0;
    int64_t rounds = 1;
};

/** A lowered schedule plus its model features. */
struct Scheduled
{
    LoopNest nest;
    NestFeatures features;
    /**
     * The Error-severity resource checks that failed when the generator
     * linted `features` (verify::resourceErrors, one bit per check) and
     * the target it linted them for. The verifier reuses them for that
     * target instead of running the checks a second time.
     */
    uint32_t resourceErrors = 0;
    std::optional<Target> lintedFor;
};

/**
 * Expand one original loop into sub-loops per the split factors.
 * Returns sub-loops outer-to-inner with correct strides. The factors
 * must multiply to at least the extent; an overshoot yields an
 * imperfect tile whose out-of-range iterations the executors guard off
 * (the generators record such axes in LoopNest::guardedAxes). The
 * generators write the same sub-loops in place (gen::setSubLoop); this
 * is their reference.
 */
std::vector<SubLoop> splitLoop(const IterVar &iv,
                               const std::vector<int64_t> &factors,
                               const std::string &suffix_base);

/**
 * Evaluate an integer (index) expression given original-variable values.
 * Access/FloatImm nodes must not appear.
 */
int64_t evalIntExpr(const Expr &e,
                    const std::vector<std::pair<const IterVarNode *,
                                                int64_t>> &env);

/**
 * Coefficient of `var` in the (affine) integer expression, measured by
 * finite difference with all other variables at zero.
 */
int64_t linearCoefficient(const Expr &e, const IterVarNode *var);

} // namespace ft

#endif // FLEXTENSOR_SCHEDULE_LOOP_NEST_H
