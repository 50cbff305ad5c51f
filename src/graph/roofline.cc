#include "graph/roofline.h"

#include <algorithm>

#include "support/logging.h"

namespace ft {
namespace graph {

namespace {

/** Modeled tier-2 bandwidth advantage over DRAM. */
constexpr double kOnChipBwMultiple = 8.0;

} // namespace

TierSpec
tierSpecFor(const Target &target)
{
    TierSpec t;
    switch (target.kind) {
      case DeviceKind::Gpu:
        t.tier1Bytes = target.gpu->sharedMemPerSm;
        t.tier2Bytes = target.gpu->l2Bytes;
        t.dramBwGBs = target.gpu->memBwGBs;
        t.peakGflops = target.gpu->peakGflops();
        t.launchSeconds = target.gpu->launchOverheadUs * 1e-6;
        break;
      case DeviceKind::Cpu:
        t.tier1Bytes = target.cpu->l2Bytes;
        t.tier2Bytes = target.cpu->l3Bytes;
        t.dramBwGBs = target.cpu->memBwGBs;
        t.peakGflops = target.cpu->peakGflops();
        t.launchSeconds = target.cpu->parallelOverheadUs * 1e-6;
        break;
      case DeviceKind::Fpga:
        // BRAM is both the fast and the capacity tier on the paper's
        // three-stage pipeline; splitting it 1:4 mirrors the row-buffer
        // vs. double-buffer budget of the FPGA generator.
        t.tier1Bytes = target.fpga->bramBytes / 4;
        t.tier2Bytes = target.fpga->bramBytes;
        t.dramBwGBs = target.fpga->ddrBwGBs;
        t.peakGflops = target.fpga->peakGflops();
        t.launchSeconds = 0.0;
        break;
    }
    t.onChipBwGBs = t.dramBwGBs * kOnChipBwMultiple;
    return t;
}

double
nodeFlops(const ComputeDag &dag, int id)
{
    const DagNode &n = dag.nodes[id];
    switch (n.kind) {
      case NodeKind::Input:
        return 0.0;
      case NodeKind::Conv: {
        // Per output element: C*R*S multiply-accumulates; inputs[1] is
        // the weight (K, C, R, S).
        const DagNode &w = dag.nodes[n.inputs[1]];
        double red = static_cast<double>(w.shape[1] * w.shape[2] *
                                         w.shape[3]);
        return static_cast<double>(n.numel()) * red * 2.0;
      }
      case NodeKind::Dense: {
        const DagNode &w = dag.nodes[n.inputs[1]];
        return static_cast<double>(n.numel()) *
               static_cast<double>(w.shape[1]) * 2.0;
      }
      case NodeKind::Pool:
        // k*k - 1 comparisons per output element.
        return static_cast<double>(n.numel()) *
               static_cast<double>(n.kernel * n.kernel - 1);
      case NodeKind::Bias:
      case NodeKind::Relu:
      case NodeKind::Add:
        return static_cast<double>(n.numel());
    }
    return 0.0;
}

int64_t
rowSlabBytes(const DagNode &node)
{
    if (node.shape.size() == 4)
        return node.shape[0] * node.shape[1] * node.shape[3] * 4;
    // 2D (and 1D vectors): one row of dim 0.
    int64_t per_row = 1;
    for (size_t d = 1; d < node.shape.size(); ++d)
        per_row *= node.shape[d];
    return per_row * 4;
}

int64_t
numRowSlabs(const DagNode &node)
{
    return node.shape.size() == 4 ? node.shape[2] : node.shape[0];
}

int64_t
consumerWindowRows(const DagNode &consumer)
{
    return consumer.kind == NodeKind::Pool ? consumer.kernel : 1;
}

GroupCost
rooflineGroupCost(const ComputeDag &dag,
                  const std::vector<std::vector<int>> &consumers,
                  const std::vector<int> &members,
                  const std::vector<bool> &ephemeral, const Target &target)
{
    return rooflineGroupCost(dag, consumers, members, ephemeral,
                             tierSpecFor(target));
}

GroupCost
rooflineGroupCost(const ComputeDag &dag,
                  const std::vector<std::vector<int>> &consumers,
                  const std::vector<int> &members,
                  const std::vector<bool> &ephemeral, const TierSpec &tier)
{
    FT_ASSERT(members.size() == ephemeral.size(),
              "ephemeral flags must parallel members");
    GroupCost cost;

    auto inGroup = [&](int id) {
        return std::binary_search(members.begin(), members.end(), id);
    };

    // External reads: every distinct producer outside the group that a
    // member consumes, read once (on-chip reuse inside the group).
    std::vector<int> external;
    for (size_t m = 0; m < members.size(); ++m) {
        const DagNode &n = dag.nodes[members[m]];
        cost.flops += nodeFlops(dag, members[m]);
        for (int in : n.inputs) {
            if (!inGroup(in) &&
                std::find(external.begin(), external.end(), in) ==
                    external.end())
                external.push_back(in);
        }
        if (ephemeral[m]) {
            cost.ephemeralBytes += n.bytes();
        } else {
            cost.memOutBytes += n.bytes();
        }
    }
    for (int in : external)
        cost.memInBytes += dag.nodes[in].bytes();

    // Streaming working set: per intra-group edge, the consumer-window
    // rows of the producer's slab — exactly the ring bytes the fused
    // executor retains. External operands are tiled by the anchor's
    // schedule and do not constrain fusion.
    for (size_t m = 0; m < members.size(); ++m) {
        const DagNode &producer = dag.nodes[members[m]];
        int64_t window = 0;
        for (int c : consumers[members[m]])
            if (inGroup(c))
                window = std::max(window,
                                  consumerWindowRows(dag.nodes[c]));
        if (window > 0)
            cost.workingSetBytes +=
                std::min(window, numRowSlabs(producer)) *
                rowSlabBytes(producer);
    }

    finishGroupCost(cost, tier);
    return cost;
}

void
finishGroupCost(GroupCost &cost, const TierSpec &tier)
{
    cost.feasible = cost.workingSetBytes <= tier.tier2Bytes;
    // Ephemeral traffic: free within tier 1, charged at on-chip
    // bandwidth when the working set only fits in tier 2.
    cost.spillBytes =
        cost.workingSetBytes > tier.tier1Bytes ? 2 * cost.ephemeralBytes : 0;

    cost.computeSeconds = cost.flops / (tier.peakGflops * 1e9);
    cost.memSeconds =
        static_cast<double>(cost.memInBytes + cost.memOutBytes) /
            (tier.dramBwGBs * 1e9) +
        static_cast<double>(cost.spillBytes) / (tier.onChipBwGBs * 1e9);
    cost.seconds = tier.launchSeconds +
                   std::max(cost.computeSeconds, cost.memSeconds);
}

} // namespace graph
} // namespace ft
