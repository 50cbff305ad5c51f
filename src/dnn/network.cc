#include "dnn/network.h"

#include "graph/lower.h"
#include "graph/partition.h"
#include "ops/ops.h"

namespace ft {

int
Network::numConvLayers() const
{
    int n = 0;
    for (const auto &l : layers)
        n += l.kind == LayerSpec::Kind::Conv;
    return n;
}

std::vector<FusedOp>
partitionAndFuse(const Network &net)
{
    const graph::ComputeDag dag = graph::dagFromNetwork(net);
    // The epilogue grouping does not depend on the device; any target
    // scores it.
    const graph::Partition partition =
        graph::epiloguePartition(dag, Target::forGpu(v100()));
    std::vector<FusedOp> out;
    for (const graph::FusionGroup &group : partition.groups) {
        FusedOp fused;
        const int anchor = group.anchor(dag);
        if (anchor >= 0) {
            fused.name = dag.nodes[anchor].name;
            fused.output = graph::lowerAnchor(dag, anchor).output;
        } else {
            // Standalone pooling: bandwidth-bound data movement.
            const graph::DagNode &pool = dag.nodes[group.members.front()];
            const graph::DagNode &data = dag.nodes[pool.inputs[0]];
            fused.name = pool.name;
            fused.output = ops::maxPool2d(placeholder(data.name, data.shape),
                                          pool.kernel, pool.stride);
            fused.schedulable = false;
        }
        out.push_back(std::move(fused));
    }
    return out;
}

} // namespace ft
