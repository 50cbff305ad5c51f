/**
 * @file
 * Lowering a fusion group's heavy anchor to the tensor IR.
 *
 * The explorers tune mini-graphs, not DAG nodes, so each group's anchor
 * is rebuilt as an ops/ mini-graph over placeholders named after its DAG
 * producers. Every partition of a network lowers a layer's anchor to
 * the same IR (same builder, same space, same tuning-cache key), which
 * is what makes fusion a pure regrouping: the schedule search is
 * untouched, only what happens to the anchor's output changes.
 */
#ifndef FLEXTENSOR_GRAPH_LOWER_H
#define FLEXTENSOR_GRAPH_LOWER_H

#include <utility>
#include <vector>

#include "exec/buffer.h"
#include "graph/fused_exec.h"

namespace ft {
namespace graph {

/** A heavy anchor lowered to IR. */
struct LoweredAnchor
{
    /** Root of the anchor's mini-graph (the conv/dense compute node). */
    Tensor output;
    /** (DAG producer id, placeholder) per anchor operand, in order. */
    std::vector<std::pair<int, Tensor>> operands;
};

/**
 * Lower the heavy DAG node `anchorId` (conv or dense) to IR. The IR
 * comes from a process-wide SetupStore (support/setup_store.h) keyed by
 * exactly what lowering reads: the anchor's kind, a conv's stride and
 * padding, and each operand node's name and shape. Anchors that agree
 * on those, in one DAG or across DAGs and calls, share one immutable
 * mini-graph, and with it the IndexAnalysis its operator builds on
 * first use; only the producer ids in `operands` are the caller's.
 */
LoweredAnchor lowerAnchor(const ComputeDag &dag, int anchorId);

/** Anchors the store behind lowerAnchor holds now. */
size_t storedAnchors();

/**
 * Bind the anchor's placeholders to DAG input data: copies each operand
 * tensor from `buffers` into an IR Buffer (dense often reads a 4D
 * activation through a flattened 2D placeholder; the row-major data is
 * shared verbatim).
 */
BufferMap bindOperands(const LoweredAnchor &lowered,
                       const DagBuffers &buffers);

/**
 * Copy the anchor's IR output buffer (e.g. produced by a scheduled
 * nest) into the DAG buffer of node `anchorId`, so fused and unfused
 * executions share one anchor result bit-for-bit.
 */
void adoptAnchorOutput(const LoweredAnchor &lowered,
                       const BufferMap &irBuffers, int anchorId,
                       const ComputeDag &dag, DagBuffers &buffers);

} // namespace graph
} // namespace ft

#endif // FLEXTENSOR_GRAPH_LOWER_H
