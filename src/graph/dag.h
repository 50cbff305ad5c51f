/**
 * @file
 * The compute DAG behind graph-level scheduling (Section 6.6 generalized).
 *
 * `dnn/network.h` models a network as a sequential layer list; real
 * graphs have multi-consumer tensors (residual connections, reused
 * activations). ComputeDag is the general form: nodes are operators,
 * edges are tensors, and any node may feed any number of consumers. The
 * fusion partitioner (graph/partition.h) groups nodes so intermediates
 * consumed only inside a group become ephemeral — they never touch DRAM.
 *
 * Nodes are stored in topological order (every input id is smaller than
 * the node's own id), which every pass in this module relies on.
 */
#ifndef FLEXTENSOR_GRAPH_DAG_H
#define FLEXTENSOR_GRAPH_DAG_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dnn/network.h"

namespace ft {
namespace graph {

/** Operator kind of one DAG node. */
enum class NodeKind {
    Input, ///< externally supplied data (activations, weights, biases)
    Conv,  ///< 2D convolution anchor (heavy)
    Dense, ///< fully-connected anchor (heavy)
    Pool,  ///< 2D max pooling (window op, bandwidth-bound standalone)
    Bias,  ///< per-channel bias add (elementwise; second input is the vector)
    Relu,  ///< elementwise max(x, 0)
    Add,   ///< elementwise two-input add (residual connections)
};

/** Short lowercase name of a node kind ("conv", "relu", ...). */
const char *nodeKindName(NodeKind kind);

/** One operator in the DAG. */
struct DagNode
{
    NodeKind kind = NodeKind::Input;
    std::string name;
    /** Producer node ids, in operand order. Conv: [data, weight];
     *  Bias: [data, vector]; Add: [lhs, rhs]; others: [data]. */
    std::vector<int> inputs;
    /** Output shape (NCHW for spatial nodes, (N, F) after dense). */
    std::vector<int64_t> shape;

    // Conv parameters (kernel also used by Pool).
    int64_t outChannels = 0;
    int64_t kernel = 0;
    int64_t stride = 1;
    int64_t padding = 0;

    // Dense parameters.
    int64_t units = 0;

    /** True for the compute-heavy anchors the explorers tune. */
    bool isHeavy() const
    {
        return kind == NodeKind::Conv || kind == NodeKind::Dense;
    }

    /** Output element count. */
    int64_t numel() const;

    /** Output bytes (fp32). */
    int64_t bytes() const { return numel() * 4; }
};

/**
 * A whole compute graph: nodes in topological order, edges implied by
 * `DagNode::inputs`. Multi-consumer tensors are simply nodes referenced
 * by several `inputs` lists.
 */
struct ComputeDag
{
    std::string name;
    std::vector<DagNode> nodes;

    /** Consumer ids of every node (ascending). */
    std::vector<std::vector<int>> consumers() const;

    /** True when node `id` has no consumers (a graph output). */
    bool isOutput(int id) const;

    /** Number of non-Input nodes. */
    int numComputeNodes() const;

    /**
     * Structural validation: topological order, operand arities, shape
     * agreement (conv/pool windows fit, Add shapes match). Returns
     * false and fills `why` on the first violation.
     */
    bool validate(std::string *why = nullptr) const;

    /**
     * Replayable one-line-per-node text form. Printed verbatim by the
     * partitioner fuzz tests when a property fails, so the offending
     * DAG can be reconstructed and replayed by hand.
     */
    std::string spec() const;

    /** 64-bit FNV-1a fingerprint of spec(); keys service-side caches. */
    uint64_t fingerprint() const;
};

/**
 * Expand a sequential Network into the general DAG form: conv/dense
 * layers become anchor nodes with explicit weight/bias Input nodes and
 * explicit Bias/Relu epilogue nodes; pooling becomes a Pool node. Every
 * FuseMode of scheduleNetwork partitions this DAG.
 */
ComputeDag dagFromNetwork(const Network &net);

} // namespace graph
} // namespace ft

#endif // FLEXTENSOR_GRAPH_DAG_H
