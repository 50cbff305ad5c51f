#include "graph/partition.h"

#include <algorithm>
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
    FT_ASSERT(assignment.size() == dag.nodes.size(),
              "assignment must cover every node");
    // Renumber groups by first member so the result is independent of
    // the labels the search happened to use.
    std::map<int, int> relabel; // old label -> first member id
    for (size_t i = 0; i < assignment.size(); ++i) {
        const bool compute = dag.nodes[i].kind != NodeKind::Input;
        FT_ASSERT(compute == (assignment[i] >= 0),
                  "compute nodes need a group, Input nodes must have none");
        if (compute && !relabel.count(assignment[i]))
            relabel[assignment[i]] = static_cast<int>(i);
    }
    std::vector<std::pair<int, int>> order; // (first member, old label)
    for (const auto &kv : relabel)
        order.push_back({kv.second, kv.first});
    std::sort(order.begin(), order.end());

    Partition part;
    part.assignment_.assign(dag.nodes.size(), -1);
    part.groups.resize(order.size());
    for (size_t g = 0; g < order.size(); ++g)
        for (size_t i = 0; i < assignment.size(); ++i)
            if (assignment[i] == order[g].second) {
                part.groups[g].members.push_back(static_cast<int>(i));
                part.assignment_[i] = static_cast<int>(g);
            }

    const auto consumers = dag.consumers();
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
                                       group.ephemeral, target);
        part.totalSeconds += group.cost.seconds;
        part.totalTrafficBytes +=
            group.cost.memInBytes + group.cost.memOutBytes;
        part.ephemeralBytes += group.cost.ephemeralBytes;
    }
    return part;
}

namespace {

/**
 * Search state: assignment so far, the cost of every group label, and
 * the state's deterministic rank.
 */
struct BeamState
{
    std::vector<int> assignment; ///< node id -> group label, -1 unassigned
    std::vector<double> labelSeconds;  ///< group label -> modeled seconds
    std::vector<int64_t> labelTraffic; ///< group label -> DRAM traffic
    double seconds = 0.0;
    int64_t traffic = 0;

    bool operator<(const BeamState &other) const
    {
        if (seconds != other.seconds)
            return seconds < other.seconds;
        if (traffic != other.traffic)
            return traffic < other.traffic;
        return assignment < other.assignment;
    }
};

/**
 * Score group `members` (ascending) under a partial assignment. All
 * states at one step share the same set of assigned nodes, so the
 * pessimistic ephemeral rule (only nodes whose consumers are all
 * assigned in-group count) ranks them fairly.
 */
GroupCost
partialGroupCost(const ComputeDag &dag,
                 const std::vector<std::vector<int>> &consumers,
                 const Target &target, const std::vector<int> &assignment,
                 const std::vector<int> &members)
{
    std::vector<bool> eph(members.size());
    for (size_t m = 0; m < members.size(); ++m) {
        const int id = members[m];
        bool e = !consumers[id].empty();
        for (int c : consumers[id])
            e = e && assignment[c] == assignment[id];
        eph[m] = e;
    }
    return rooflineGroupCost(dag, consumers, members, eph, target);
}

/**
 * Record the cost of group `label` after a move into it and re-total.
 * Assigning node v to a label can only change that label's cost: v's
 * producers in other groups already had an unassigned (so
 * out-of-group) consumer, and their groups' members are unchanged. The
 * totals are re-summed in ascending label order, the order a full
 * rescore sums them in, so `seconds` is bit-identical to one.
 */
void
setLabelCost(BeamState &state, int label, const GroupCost &cost)
{
    if (label == static_cast<int>(state.labelSeconds.size())) {
        state.labelSeconds.push_back(0.0);
        state.labelTraffic.push_back(0);
    }
    state.labelSeconds[label] = cost.seconds;
    state.labelTraffic[label] = cost.memInBytes + cost.memOutBytes;
    state.seconds = 0.0;
    for (double s : state.labelSeconds)
        state.seconds += s;
    state.traffic = 0;
    for (int64_t t : state.labelTraffic)
        state.traffic += t;
}

/**
 * Would sinking `node` into group `label` keep the group quotient
 * acyclic? Adding the node creates edges producerGroup -> label for its
 * other producers; a cycle needs an existing quotient path from `label`
 * to one of those producer groups.
 */
bool
sinkKeepsAcyclic(const ComputeDag &dag, const std::vector<int> &assignment,
                 int node, int label)
{
    // Quotient edges among assigned nodes: group(u) -> group(v) for each
    // dag edge u -> v crossing groups.
    std::map<int, std::vector<int>> succ;
    for (size_t v = 0; v < assignment.size(); ++v) {
        if (assignment[v] < 0)
            continue;
        for (int u : dag.nodes[v].inputs)
            if (assignment[u] >= 0 && assignment[u] != assignment[v])
                succ[assignment[u]].push_back(assignment[v]);
    }
    std::vector<int> stack = {label}, seen;
    while (!stack.empty()) {
        int g = stack.back();
        stack.pop_back();
        if (std::find(seen.begin(), seen.end(), g) != seen.end())
            continue;
        seen.push_back(g);
        auto it = succ.find(g);
        if (it != succ.end())
            for (int next : it->second)
                stack.push_back(next);
    }
    for (int u : dag.nodes[node].inputs) {
        if (assignment[u] < 0 || assignment[u] == label)
            continue;
        if (std::find(seen.begin(), seen.end(), assignment[u]) != seen.end())
            return false;
    }
    return true;
}

} // namespace

Partition
partitionDag(const ComputeDag &dag, const Target &target,
             const PartitionOptions &options)
{
    const auto consumers = dag.consumers();
    std::vector<BeamState> beam(1);
    beam[0].assignment.assign(dag.nodes.size(), -1);

    for (size_t v = 0; v < dag.nodes.size(); ++v) {
        const DagNode &node = dag.nodes[v];
        if (node.kind == NodeKind::Input)
            continue;
        std::vector<BeamState> next;
        for (const BeamState &state : beam) {
            // Move 1: open a new group for v.
            {
                BeamState s = state;
                const int label = static_cast<int>(s.labelSeconds.size());
                s.assignment[v] = label;
                setLabelCost(s, label,
                             partialGroupCost(dag, consumers, target,
                                              s.assignment,
                                              {static_cast<int>(v)}));
                next.push_back(std::move(s));
            }
            // Move 2: sink v into a producer's group (non-heavy only —
            // heavy anchors always open their own group).
            if (node.isHeavy())
                continue;
            std::vector<int> tried;
            for (int in : node.inputs) {
                const int label = state.assignment[in];
                if (label < 0 ||
                    std::find(tried.begin(), tried.end(), label) !=
                        tried.end())
                    continue;
                tried.push_back(label);
                std::vector<int> members;
                for (size_t i = 0; i < state.assignment.size(); ++i)
                    if (state.assignment[i] == label)
                        members.push_back(static_cast<int>(i));
                if (static_cast<int>(members.size()) >= options.maxGroupSize)
                    continue;
                if (!sinkKeepsAcyclic(dag, state.assignment,
                                      static_cast<int>(v), label))
                    continue;
                members.push_back(static_cast<int>(v));
                BeamState s = state;
                s.assignment[v] = label;
                // Feasibility depends only on the working set, which
                // ignores ephemeral flags: the one real score decides it.
                const GroupCost cost = partialGroupCost(
                    dag, consumers, target, s.assignment, members);
                if (!cost.feasible)
                    continue;
                setLabelCost(s, label, cost);
                next.push_back(std::move(s));
            }
        }
        std::sort(next.begin(), next.end());
        if (static_cast<int>(next.size()) > options.beamWidth)
            next.resize(options.beamWidth);
        beam = std::move(next);
    }

    FT_ASSERT(!beam.empty(), "beam search lost every state");
    // Fusion-legality gate (FT-DEP-006): before any tuning happens the
    // winning assignment must carry a proven partition certificate —
    // streaming order, retention windows, ephemeral non-escape, anchor
    // uniqueness, on-chip capacity. An uncertifiable state falls back
    // to the next beam rank; the fully unfused partition backstops.
    for (const BeamState &state : beam) {
        Partition p = finalizePartition(dag, state.assignment, target);
        if (verify::certifyPartition(dag, p, target).equivalent())
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
    return finalizePartition(dag, assignment, target);
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
