/**
 * @file
 * Three-tier roofline cost model for fusion groups.
 *
 * A fused group is scored as
 *
 *     seconds = launch + max(compute, dram_traffic/bw + spill_traffic/bw2)
 *
 * under a working-set capacity constraint, with three memory tiers taken
 * from the Target device model:
 *
 *   tier 1 — registers / shared memory / per-core cache: when the
 *            group's streaming working set fits here, ephemeral
 *            intermediates are free;
 *   tier 2 — chip-level cache (GPU L2, CPU L3, FPGA BRAM): a working
 *            set that only fits here pays for ephemeral traffic at the
 *            (faster) on-chip bandwidth;
 *   tier 3 — DRAM: external group inputs and non-ephemeral outputs
 *            always pay a round trip here. A working set that exceeds
 *            tier 2 makes the group infeasible — the partitioner must
 *            split it.
 *
 * The working set is the streaming model's: producing one output row
 * slab requires retaining, per intra-group edge, a window of producer
 * rows (1 for elementwise consumers, `kernel` for pooling consumers).
 * External operands are tiled by the anchor's schedule and do not count
 * against the fusion working set. The fused executor
 * (graph/fused_exec.h) allocates exactly these retention windows as
 * ring buffers and enforces the same bound at run time, so the model
 * and the execution semantics cannot drift.
 */
#ifndef FLEXTENSOR_GRAPH_ROOFLINE_H
#define FLEXTENSOR_GRAPH_ROOFLINE_H

#include <vector>

#include "graph/dag.h"
#include "sim/hw_spec.h"

namespace ft {
namespace graph {

/** The three memory tiers + compute roof of one device. */
struct TierSpec
{
    int64_t tier1Bytes = 0;  ///< registers/shared/per-core cache
    int64_t tier2Bytes = 0;  ///< chip-level cache (L2/L3/BRAM)
    double dramBwGBs = 1.0;  ///< tier-3 bandwidth
    double onChipBwGBs = 1.0;///< tier-2 bandwidth (modeled multiple of DRAM)
    double peakGflops = 1.0;
    double launchSeconds = 0.0; ///< per-group dispatch overhead
};

/** Device-model tiers for a tuning target. */
TierSpec tierSpecFor(const Target &target);

/** Roofline score of one fusion group (see file comment). */
struct GroupCost
{
    double flops = 0.0;
    int64_t memInBytes = 0;     ///< external reads (tier 3)
    int64_t memOutBytes = 0;    ///< non-ephemeral writes (tier 3)
    int64_t ephemeralBytes = 0; ///< intermediate bytes kept off DRAM
    int64_t spillBytes = 0;     ///< ephemeral traffic charged to tier 2
    int64_t workingSetBytes = 0;///< peak streaming scratch
    double computeSeconds = 0.0;
    double memSeconds = 0.0;
    double seconds = 0.0;       ///< launch + max(compute, mem)
    bool feasible = true;       ///< working set fits within tier 2
};

/**
 * FLOPs of node `id` of `dag`; conv and dense read their reduction
 * extent off the weight operand.
 */
double nodeFlops(const ComputeDag &dag, int id);

/** Bytes of one output-row slab of a node (streaming granularity). */
int64_t rowSlabBytes(const DagNode &node);

/** Number of row slabs of a node (H for NCHW, dim 0 for 2D). */
int64_t numRowSlabs(const DagNode &node);

/**
 * Rows of `producer` a consumer must retain to emit one of its own
 * output rows: 1 for elementwise, `kernel` for pooling.
 */
int64_t consumerWindowRows(const DagNode &consumer);

/**
 * Score the group formed by `members` (ascending node ids). `ephemeral`
 * flags (parallel to members) mark outputs that stay on chip.
 * `consumers` is `dag.consumers()`, computed once by the caller.
 */
GroupCost rooflineGroupCost(const ComputeDag &dag,
                            const std::vector<std::vector<int>> &consumers,
                            const std::vector<int> &members,
                            const std::vector<bool> &ephemeral,
                            const Target &target);

/** The same score with the device's tiers resolved once by the caller. */
GroupCost rooflineGroupCost(const ComputeDag &dag,
                            const std::vector<std::vector<int>> &consumers,
                            const std::vector<int> &members,
                            const std::vector<bool> &ephemeral,
                            const TierSpec &tier);

/**
 * Derive feasibility, spill bytes and the three times of `cost` from its
 * flops, DRAM bytes, ephemeral bytes and working set: the arithmetic
 * every roofline score ends with, shared with the partitioner's
 * incremental group costs so both produce the same bits.
 */
void finishGroupCost(GroupCost &cost, const TierSpec &tier);

} // namespace graph
} // namespace ft

#endif // FLEXTENSOR_GRAPH_ROOFLINE_H
