#include "graph/partition.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "analysis/verify/certificate.h"
#include "support/logging.h"

namespace ft {
namespace graph {

int
FusionGroup::anchor(const ComputeDag &dag) const
{
    for (int m : members)
        if (dag.nodes[m].isHeavy())
            return m;
    return -1;
}

int
Partition::groupOf(int id) const
{
    if (id < 0 || id >= static_cast<int>(assignment_.size()))
        return -1;
    return assignment_[id];
}

Partition
finalizePartition(const ComputeDag &dag, const std::vector<int> &assignment,
                  const Target &target)
{
    return finalizePartition(dag, dag.consumers(), assignment, target);
}

Partition
finalizePartition(const ComputeDag &dag,
                  const std::vector<std::vector<int>> &consumers,
                  const std::vector<int> &assignment, const Target &target)
{
    FT_ASSERT(assignment.size() == dag.nodes.size(),
              "assignment must cover every node");
    // Renumber groups by first member so the result is independent of
    // the labels the search happened to use: scanning ids in ascending
    // order meets each label first at its first member.
    Partition part;
    part.assignment_.assign(dag.nodes.size(), -1);
    std::map<int, int> relabel; // old label -> group index
    for (size_t i = 0; i < assignment.size(); ++i) {
        const bool compute = dag.nodes[i].kind != NodeKind::Input;
        FT_ASSERT(compute == (assignment[i] >= 0),
                  "compute nodes need a group, Input nodes must have none");
        if (!compute)
            continue;
        const int g =
            relabel.emplace(assignment[i], static_cast<int>(relabel.size()))
                .first->second;
        if (g == static_cast<int>(part.groups.size()))
            part.groups.emplace_back();
        part.groups[g].members.push_back(static_cast<int>(i));
        part.assignment_[i] = g;
    }

    const TierSpec tier = tierSpecFor(target);
    for (auto &group : part.groups) {
        group.ephemeral.resize(group.members.size());
        for (size_t m = 0; m < group.members.size(); ++m) {
            const int id = group.members[m];
            bool eph = !consumers[id].empty();
            for (int c : consumers[id])
                eph = eph && part.assignment_[c] == part.assignment_[id];
            group.ephemeral[m] = eph;
        }
        group.cost = rooflineGroupCost(dag, consumers, group.members,
                                       group.ephemeral, tier);
        part.totalSeconds += group.cost.seconds;
        part.totalTrafficBytes +=
            group.cost.memInBytes + group.cost.memOutBytes;
        part.ephemeralBytes += group.cost.ephemeralBytes;
    }
    return part;
}

namespace {

/** What every move of one partitionDag call reads: fixed per DAG. */
struct BeamContext
{
    BeamContext(const ComputeDag &dag, const Target &target)
        : dag(dag),
          consumers(dag.consumers()),
          tier(tierSpecFor(target)),
          flops(dag.nodes.size()),
          words((dag.numComputeNodes() + 63) / 64)
    {
        for (size_t i = 0; i < dag.nodes.size(); ++i)
            flops[i] = nodeFlops(dag, static_cast<int>(i));
    }

    const ComputeDag &dag;
    const std::vector<std::vector<int>> consumers;
    const TierSpec tier;
    std::vector<double> flops; ///< node id -> nodeFlops
    /** 64-bit words of one label bitset (labels < compute nodes). */
    const int words;
};

/**
 * Search state, in flat per-state arrays. Every label's cost is kept as
 * the running sums rooflineGroupCost would compute for its members
 * under this partial assignment, so a move updates one label from the
 * edges of the node it places, never from a member scan.
 */
struct BeamState
{
    std::vector<int> assignment; ///< node id -> group label, -1 unassigned
    std::vector<GroupCost> labelCost; ///< group label -> current score
    std::vector<int> labelSize;       ///< group label -> member count
    /** prefix[l] = labelCost[0..l).seconds summed in ascending label
     *  order, as a full rescore sums them; prefix.back() is the total. */
    std::vector<double> prefix;
    /** Label l's row (BeamContext::words words) has bit t set when a
     *  quotient path of one or more edges leads from group l to t. */
    std::vector<uint64_t> reach;
    int64_t traffic = 0;
    /** Rank of `assignment` among the beam's states, lexicographically. */
    int order = 0;

    int numLabels() const { return static_cast<int>(labelSize.size()); }

    bool reaches(int words, int from, int to) const
    {
        return (reach[static_cast<size_t>(from) * words + to / 64] >>
                (to % 64)) & 1u;
    }
};

/** DRAM bytes of a group score: the partition's traffic measure. */
int64_t
trafficOf(const GroupCost &cost)
{
    return cost.memInBytes + cost.memOutBytes;
}

/**
 * One move the beam may take from a parent state: node v into group
 * `label` (a new one when label == parent.numLabels()). Ranked without
 * building the child: (seconds, traffic) of the child, then its
 * assignment, which differs from a sibling's only at v and from
 * another parent's child where the parents differ.
 */
struct Candidate
{
    int parent;
    int parentOrder;
    int label;
    GroupCost cost; ///< the label's score after the move
    double seconds;
    int64_t traffic;

    bool operator<(const Candidate &other) const
    {
        if (seconds != other.seconds)
            return seconds < other.seconds;
        if (traffic != other.traffic)
            return traffic < other.traffic;
        if (parentOrder != other.parentOrder)
            return parentOrder < other.parentOrder;
        return label < other.label;
    }
};

/** True when input `pos` of `node` repeats an earlier input. */
bool
repeatsInput(const DagNode &node, size_t pos)
{
    for (size_t i = 0; i < pos; ++i)
        if (node.inputs[i] == node.inputs[pos])
            return true;
    return false;
}

/**
 * Score of node v alone in a new group. Its consumers all come later,
 * so it is not ephemeral and retains no window; every input is an
 * external read. The same for every parent state.
 */
GroupCost
openCost(const BeamContext &ctx, int v)
{
    const DagNode &node = ctx.dag.nodes[v];
    GroupCost cost;
    cost.flops = ctx.flops[v];
    for (size_t i = 0; i < node.inputs.size(); ++i)
        if (!repeatsInput(node, i))
            cost.memInBytes += ctx.dag.nodes[node.inputs[i]].bytes();
    cost.memOutBytes = node.bytes();
    finishGroupCost(cost, ctx.tier);
    return cost;
}

/**
 * Score of group `label` of `state` with node v added: the label's
 * rooflineGroupCost sums updated by v's edges alone. v's output is a
 * new DRAM write; each input outside the group is a new read unless a
 * member already reads it; each input inside the group gains v as an
 * in-group consumer, which widens its retention window and, once every
 * consumer is in the group, makes it ephemeral. Flops accumulate in
 * ascending member order, as the full score adds them.
 */
GroupCost
sinkCost(const BeamContext &ctx, const BeamState &state, int v, int label)
{
    const DagNode &node = ctx.dag.nodes[v];
    GroupCost cost = state.labelCost[label];
    cost.flops += ctx.flops[v];
    cost.memOutBytes += node.bytes();
    for (size_t i = 0; i < node.inputs.size(); ++i) {
        if (repeatsInput(node, i))
            continue;
        const int u = node.inputs[i];
        const DagNode &producer = ctx.dag.nodes[u];
        if (state.assignment[u] != label) {
            bool read = false;
            for (int c : ctx.consumers[u])
                read = read || state.assignment[c] == label;
            if (!read)
                cost.memInBytes += producer.bytes();
            continue;
        }
        // u's consumers before this move: v was unassigned, so u was
        // not ephemeral; its window came from its in-group consumers.
        bool allIn = true;
        int64_t window = 0;
        for (int c : ctx.consumers[u]) {
            if (c == v)
                continue;
            if (state.assignment[c] == label)
                window = std::max(window,
                                  consumerWindowRows(ctx.dag.nodes[c]));
            else
                allIn = false;
        }
        if (allIn) {
            cost.memOutBytes -= producer.bytes();
            cost.ephemeralBytes += producer.bytes();
        }
        const int64_t slabs = numRowSlabs(producer);
        const int64_t widened =
            std::max(window, consumerWindowRows(node));
        cost.workingSetBytes += (std::min(widened, slabs) -
                                 std::min(window, slabs)) *
                                rowSlabBytes(producer);
    }
    finishGroupCost(cost, ctx.tier);
    return cost;
}

/**
 * Would sinking v into group `label` keep the group quotient acyclic?
 * The move adds an edge t -> label for every input of v in another
 * assigned group t; a cycle needs a path label ~> t that already
 * exists. With no such input the move adds no edge at all.
 */
bool
sinkKeepsAcyclic(const BeamContext &ctx, const BeamState &state, int v,
                 int label)
{
    for (int u : ctx.dag.nodes[v].inputs) {
        const int t = state.assignment[u];
        if (t >= 0 && t != label && state.reaches(ctx.words, label, t))
            return false;
    }
    return true;
}

/**
 * Turn `child`, a copy of the parent state, into the state after move
 * `cand` for node v: place v, record its label's score, extend the
 * ascending-label prefix sums from that label on, and close the
 * quotient reachability over the new edges t -> label (every group that
 * reaches or is some t now also reaches label and everything label
 * reaches). `sources` is scratch.
 */
void
applyMove(const BeamContext &ctx, const Candidate &cand, int v,
          BeamState &child, std::vector<uint64_t> &sources)
{
    const int label = cand.label;
    const int words = ctx.words;
    child.assignment[v] = label;
    if (label == child.numLabels()) {
        child.labelCost.push_back(cand.cost);
        child.labelSize.push_back(1);
        child.prefix.push_back(0.0);
        child.reach.resize(child.reach.size() + words, 0);
    } else {
        child.labelCost[label] = cand.cost;
        ++child.labelSize[label];
    }
    for (int l = label; l < child.numLabels(); ++l)
        child.prefix[l + 1] = child.prefix[l] + child.labelCost[l].seconds;
    child.traffic = cand.traffic;

    sources.assign(words, 0);
    bool any = false;
    for (int u : ctx.dag.nodes[v].inputs) {
        const int t = child.assignment[u];
        if (t >= 0 && t != label) {
            sources[t / 64] |= uint64_t{1} << (t % 64);
            any = true;
        }
    }
    if (!any)
        return;
    uint64_t *rows = child.reach.data();
    const uint64_t *into = rows + static_cast<size_t>(label) * words;
    for (int a = 0; a < child.numLabels(); ++a) {
        uint64_t *row = rows + static_cast<size_t>(a) * words;
        bool hit = (sources[a / 64] >> (a % 64)) & 1u;
        for (int w = 0; w < words && !hit; ++w)
            hit = (row[w] & sources[w]) != 0;
        if (!hit)
            continue;
        for (int w = 0; w < words; ++w)
            row[w] |= into[w];
        row[label / 64] |= uint64_t{1} << (label % 64);
    }
}

} // namespace

Partition
partitionDag(const ComputeDag &dag, const Target &target,
             const PartitionOptions &options)
{
    const BeamContext ctx(dag, target);
    std::vector<BeamState> beam(1), next;
    beam[0].assignment.assign(dag.nodes.size(), -1);
    beam[0].prefix = {0.0};
    std::vector<Candidate> cands;
    std::vector<int> byOrder, lastChild;
    std::vector<uint64_t> sources;

    for (size_t vi = 0; vi < dag.nodes.size(); ++vi) {
        const int v = static_cast<int>(vi);
        const DagNode &node = dag.nodes[v];
        if (node.kind == NodeKind::Input)
            continue;
        const GroupCost open = openCost(ctx, v);
        cands.clear();
        for (size_t p = 0; p < beam.size(); ++p) {
            const BeamState &state = beam[p];
            const int parent = static_cast<int>(p);
            // Move 1: open a new group for v. Appending the label adds
            // its seconds last, as the ascending re-sum would.
            cands.push_back({parent, state.order, state.numLabels(), open,
                             state.prefix.back() + open.seconds,
                             state.traffic + trafficOf(open)});
            // Move 2: sink v into a producer's group (non-heavy only —
            // heavy anchors always open their own group).
            if (node.isHeavy())
                continue;
            for (size_t i = 0; i < node.inputs.size(); ++i) {
                const int label = state.assignment[node.inputs[i]];
                bool tried = false;
                for (size_t j = 0; j < i; ++j)
                    tried = tried ||
                            state.assignment[node.inputs[j]] == label;
                if (label < 0 || tried ||
                    state.labelSize[label] >= options.maxGroupSize ||
                    !sinkKeepsAcyclic(ctx, state, v, label))
                    continue;
                const GroupCost cost = sinkCost(ctx, state, v, label);
                if (!cost.feasible)
                    continue;
                // Re-sum the totals in ascending label order with this
                // one label replaced, as a full rescore would.
                double seconds = state.prefix[label] + cost.seconds;
                for (int l = label + 1; l < state.numLabels(); ++l)
                    seconds += state.labelCost[l].seconds;
                cands.push_back({parent, state.order, label, cost, seconds,
                                 state.traffic -
                                     trafficOf(state.labelCost[label]) +
                                     trafficOf(cost)});
            }
        }
        // The ranking is a strict total order, so the top beamWidth are
        // the same states a full sort would keep; only they are built.
        const size_t keep = std::min(
            cands.size(),
            static_cast<size_t>(std::max(options.beamWidth, 0)));
        std::partial_sort(cands.begin(), cands.begin() + keep, cands.end());
        // A parent's last surviving child takes over its buffers; the
        // others copy them first.
        lastChild.assign(beam.size(), -1);
        for (size_t k = 0; k < keep; ++k)
            lastChild[cands[k].parent] = static_cast<int>(k);
        next.resize(keep);
        for (size_t k = 0; k < keep; ++k) {
            BeamState &parent = beam[cands[k].parent];
            if (lastChild[cands[k].parent] == static_cast<int>(k))
                std::swap(next[k], parent);
            else
                next[k] = parent;
            applyMove(ctx, cands[k], v, next[k], sources);
        }
        // Children order like (parent's assignment, label).
        byOrder.resize(keep);
        for (size_t k = 0; k < keep; ++k)
            byOrder[k] = static_cast<int>(k);
        std::sort(byOrder.begin(), byOrder.end(), [&](int a, int b) {
            if (cands[a].parentOrder != cands[b].parentOrder)
                return cands[a].parentOrder < cands[b].parentOrder;
            return cands[a].label < cands[b].label;
        });
        for (size_t r = 0; r < keep; ++r)
            next[byOrder[r]].order = static_cast<int>(r);
        std::swap(beam, next);
    }

    FT_ASSERT(!beam.empty(), "beam search lost every state");
    // Fusion-legality gate (FT-DEP-006): before any tuning happens the
    // winning assignment must carry a proven partition certificate —
    // streaming order, retention windows, ephemeral non-escape, anchor
    // uniqueness, on-chip capacity. An uncertifiable state falls back
    // to the next beam rank; the fully unfused partition backstops.
    for (const BeamState &state : beam) {
        Partition p =
            finalizePartition(dag, ctx.consumers, state.assignment, target);
        if (verify::partitionCertifies(dag, p, target, ctx.consumers))
            return p;
    }
    return nonePartition(dag, target);
}

Partition
epiloguePartition(const ComputeDag &dag, const Target &target)
{
    const auto consumers = dag.consumers();
    std::vector<int> assignment(dag.nodes.size(), -1);
    int groups = 0;
    for (size_t v = 0; v < dag.nodes.size(); ++v) {
        const DagNode &node = dag.nodes[v];
        if (node.kind == NodeKind::Input)
            continue;
        // Bias/ReLU sink into a heavy producer's group when they are the
        // producer's sole consumer: one group per network layer.
        if ((node.kind == NodeKind::Bias || node.kind == NodeKind::Relu) &&
            !node.inputs.empty()) {
            const int producer = node.inputs[0];
            if (assignment[producer] >= 0 &&
                consumers[producer].size() == 1) {
                assignment[v] = assignment[producer];
                continue;
            }
        }
        assignment[v] = groups++;
    }
    return finalizePartition(dag, consumers, assignment, target);
}

Partition
nonePartition(const ComputeDag &dag, const Target &target)
{
    std::vector<int> assignment(dag.nodes.size(), -1);
    int groups = 0;
    for (size_t v = 0; v < dag.nodes.size(); ++v)
        if (dag.nodes[v].kind != NodeKind::Input)
            assignment[v] = groups++;
    return finalizePartition(dag, assignment, target);
}

namespace {

bool
partitionFail(const ComputeDag &dag, std::string *why,
              const std::string &msg)
{
    if (why)
        *why = msg + "\noffending DAG:\n" + dag.spec();
    return false;
}

} // namespace

bool
checkPartition(const ComputeDag &dag, const Partition &partition,
               const Target &target, std::string *why)
{
    // Property 1: every compute node in exactly one group, Inputs in none.
    std::vector<int> owner(dag.nodes.size(), -1);
    for (size_t g = 0; g < partition.groups.size(); ++g) {
        const FusionGroup &group = partition.groups[g];
        if (group.members.empty())
            return partitionFail(dag, why,
                                 "group " + std::to_string(g) + " is empty");
        if (group.ephemeral.size() != group.members.size())
            return partitionFail(dag, why,
                                 "group " + std::to_string(g) +
                                     " ephemeral flags out of step");
        int heavy = 0;
        for (size_t m = 0; m < group.members.size(); ++m) {
            const int id = group.members[m];
            if (id < 0 || id >= static_cast<int>(dag.nodes.size()))
                return partitionFail(dag, why, "member id out of range");
            if (m > 0 && group.members[m - 1] >= id)
                return partitionFail(dag, why,
                                     "group " + std::to_string(g) +
                                         " members not ascending");
            if (dag.nodes[id].kind == NodeKind::Input)
                return partitionFail(dag, why,
                                     "Input node " + std::to_string(id) +
                                         " assigned to a group");
            if (owner[id] != -1)
                return partitionFail(dag, why,
                                     "node " + std::to_string(id) +
                                         " in two groups");
            owner[id] = static_cast<int>(g);
            if (dag.nodes[id].isHeavy()) {
                ++heavy;
                if (m != 0)
                    return partitionFail(
                        dag, why,
                        "heavy node " + std::to_string(id) +
                            " is not its group's first member");
            }
        }
        if (heavy > 1)
            return partitionFail(dag, why,
                                 "group " + std::to_string(g) +
                                     " has two heavy anchors");
    }
    for (size_t i = 0; i < dag.nodes.size(); ++i)
        if (dag.nodes[i].kind != NodeKind::Input && owner[i] == -1)
            return partitionFail(dag, why,
                                 "compute node " + std::to_string(i) +
                                     " left out of the partition");

    // Property 2: the group quotient is acyclic (Kahn's algorithm).
    const size_t numGroups = partition.groups.size();
    std::vector<std::vector<int>> succ(numGroups);
    std::vector<int> indegree(numGroups, 0);
    for (size_t v = 0; v < dag.nodes.size(); ++v) {
        if (owner[v] < 0)
            continue;
        for (int u : dag.nodes[v].inputs)
            if (owner[u] >= 0 && owner[u] != owner[v]) {
                succ[owner[u]].push_back(owner[v]);
                ++indegree[owner[v]];
            }
    }
    std::vector<int> ready;
    for (size_t g = 0; g < numGroups; ++g)
        if (indegree[g] == 0)
            ready.push_back(static_cast<int>(g));
    size_t emitted = 0;
    while (!ready.empty()) {
        int g = ready.back();
        ready.pop_back();
        ++emitted;
        for (int next : succ[g])
            if (--indegree[next] == 0)
                ready.push_back(next);
    }
    if (emitted != numGroups)
        return partitionFail(dag, why, "group quotient has a cycle");

    // Property 3: ephemeral tensors never escape their group.
    const auto consumers = dag.consumers();
    for (const FusionGroup &group : partition.groups)
        for (size_t m = 0; m < group.members.size(); ++m) {
            if (!group.ephemeral[m])
                continue;
            const int id = group.members[m];
            if (consumers[id].empty())
                return partitionFail(dag, why,
                                     "graph output " + std::to_string(id) +
                                         " marked ephemeral");
            for (int c : consumers[id])
                if (owner[c] != owner[id])
                    return partitionFail(
                        dag, why,
                        "ephemeral tensor " + std::to_string(id) +
                            " escapes to node " + std::to_string(c));
        }

    // Property 4: every group's working set fits the device.
    for (size_t g = 0; g < numGroups; ++g) {
        GroupCost cost =
            rooflineGroupCost(dag, consumers, partition.groups[g].members,
                              partition.groups[g].ephemeral, target);
        if (!cost.feasible)
            return partitionFail(
                dag, why,
                "group " + std::to_string(g) +
                    " working set exceeds tier-2 capacity (" +
                    std::to_string(cost.workingSetBytes) + " bytes)");
    }
    return true;
}

} // namespace graph
} // namespace ft
