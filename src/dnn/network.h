/**
 * @file
 * Whole-network representation for the end-to-end case study (Section 6.6).
 *
 * FlexTensor handles full DNNs by partitioning them into sub-graphs and
 * fusing elementwise epilogues (bias, ReLU) into the producing operator;
 * the fused operators are then scheduled one by one in bottom-up order
 * (Algorithm 1). This module provides the layer-graph representation and
 * the per-layer operator list; graph/dag.h expands a Network into the
 * DAG that every scheduling mode partitions, and dnn/models.cc defines
 * YOLO-v1 and OverFeat.
 */
#ifndef FLEXTENSOR_DNN_NETWORK_H
#define FLEXTENSOR_DNN_NETWORK_H

#include <cstdint>
#include <string>
#include <vector>

#include "ir/operation.h"

namespace ft {

/** One layer of a sequential CNN. */
struct LayerSpec
{
    enum class Kind { Conv, MaxPool, Dense };

    Kind kind = Kind::Conv;
    std::string name;

    // Conv fields.
    int64_t outChannels = 0;
    int64_t kernel = 0;
    int64_t stride = 1;
    int64_t padding = 0;
    bool bias = true;
    bool relu = true;

    // MaxPool fields (kernel/stride shared with conv fields).

    // Dense fields.
    int64_t units = 0;
};

/** A sequential network: input shape plus an ordered layer list. */
struct Network
{
    std::string name;
    std::vector<int64_t> inputShape; ///< NCHW
    std::vector<LayerSpec> layers;

    /** Number of convolution layers. */
    int numConvLayers() const;
};

/**
 * A fused schedulable unit after sub-graph partitioning: one anchor
 * operator (conv or dense) with its fused elementwise epilogue ops.
 */
struct FusedOp
{
    std::string name;
    Tensor output;       ///< graph rooted at the anchor (pre-epilogue)
    bool schedulable = true;  ///< false for pure-memory ops (pooling)
};

/**
 * The network's layers as operators to tune, one per group of
 * graph::epiloguePartition: each conv/dense layer absorbs its bias/ReLU
 * epilogue and is its lowered anchor (graph::lowerAnchor); pooling
 * layers become unschedulable memory ops.
 */
std::vector<FusedOp> partitionAndFuse(const Network &net);

} // namespace ft

#endif // FLEXTENSOR_DNN_NETWORK_H
