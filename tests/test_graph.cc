/**
 * @file
 * Graph-level scheduling tests.
 *
 * The load-bearing suites are differential: a fused subgraph's outputs
 * must equal the layer-by-layer unfused reference BIT-FOR-BIT (compared
 * with exact float equality, not a tolerance). Both executors share the
 * per-element kernels, so what these tests pin down is the fused path's
 * streaming machinery — ring indexing, retention windows, and the
 * producer/consumer interleave — including on anchors computed by
 * sampled schedule points (reusing the test_fuzz_schedule.cc sampling
 * machinery), on multi-consumer tensors, and on ephemeral
 * intermediates that must never materialize.
 *
 * The partitioner is property-fuzzed over seeded random DAGs: every
 * compute op in exactly one group, quotient acyclic, ephemeral tensors
 * never escape, and the working-set constraint holds; a violation
 * prints the offending DAG spec for replay. Its incremental beam
 * scoring must match a full-rescore reference search bit for bit.
 *
 * tuneDag's anchor memo is checked against independent tune() calls of
 * every lowered anchor, and the OpKey it keys on against the printed
 * mini-graphs of every Section 6.6 anchor.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dnn/models.h"
#include "exec/interpreter.h"
#include "exec/reference.h"
#include "graph/fused_exec.h"
#include "graph/lower.h"
#include "graph/partition.h"
#include "graph/schedule_dag.h"
#include "ir/printer.h"
#include "ml/costmodel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_report.h"
#include "schedule/generator.h"
#include "sim/library_model.h"
#include "sim/perf_model.h"
#include "schedule/serialize.h"
#include "explore/tuner.h"
#include "space/builder.h"
#include "support/rng.h"

namespace ft {
namespace graph {
namespace {

int
fuzzSamples()
{
    if (const char *env = std::getenv("FLEXTENSOR_FUZZ_SAMPLES")) {
        int n = std::atoi(env);
        if (n > 0)
            return n;
    }
    return 200;
}

int
pushInput(ComputeDag &dag, const std::string &name,
          std::vector<int64_t> shape)
{
    DagNode n;
    n.kind = NodeKind::Input;
    n.name = name;
    n.shape = std::move(shape);
    dag.nodes.push_back(std::move(n));
    return static_cast<int>(dag.nodes.size()) - 1;
}

int
pushConv(ComputeDag &dag, const std::string &name, int data, int64_t k,
         int64_t kernel, int64_t stride, int64_t padding)
{
    // Copy: pushInput below may reallocate dag.nodes.
    const auto in = dag.nodes[data].shape;
    int w = pushInput(dag, name + ".w", {k, in[1], kernel, kernel});
    DagNode n;
    n.kind = NodeKind::Conv;
    n.name = name;
    n.inputs = {data, w};
    n.outChannels = k;
    n.kernel = kernel;
    n.stride = stride;
    n.padding = padding;
    n.shape = {in[0], k, (in[2] + 2 * padding - kernel) / stride + 1,
               (in[3] + 2 * padding - kernel) / stride + 1};
    dag.nodes.push_back(std::move(n));
    return static_cast<int>(dag.nodes.size()) - 1;
}

int
pushEltwise(ComputeDag &dag, NodeKind kind, const std::string &name,
            std::vector<int> inputs)
{
    DagNode n;
    n.kind = kind;
    n.name = name;
    n.inputs = std::move(inputs);
    n.shape = dag.nodes[n.inputs[0]].shape;
    dag.nodes.push_back(std::move(n));
    return static_cast<int>(dag.nodes.size()) - 1;
}

int
pushPool(ComputeDag &dag, const std::string &name, int data, int64_t kernel,
         int64_t stride)
{
    const auto &in = dag.nodes[data].shape;
    DagNode n;
    n.kind = NodeKind::Pool;
    n.name = name;
    n.inputs = {data};
    n.kernel = kernel;
    n.stride = stride;
    n.shape = {in[0], in[1], (in[2] - kernel) / stride + 1,
               (in[3] - kernel) / stride + 1};
    dag.nodes.push_back(std::move(n));
    return static_cast<int>(dag.nodes.size()) - 1;
}

/** conv(3x3, pad 1) -> bias -> relu -> pool(2x2) chain. */
ComputeDag
chainDag()
{
    ComputeDag dag;
    dag.name = "chain";
    int data = pushInput(dag, "data", {1, 4, 10, 10});
    int conv = pushConv(dag, "conv", data, 6, 3, 1, 1);
    int bvec = pushInput(dag, "conv.b", {6});
    int bias = pushEltwise(dag, NodeKind::Bias, "conv.bias", {conv, bvec});
    int relu = pushEltwise(dag, NodeKind::Relu, "conv.relu", {bias});
    pushPool(dag, "pool", relu, 2, 2);
    std::string why;
    EXPECT_TRUE(dag.validate(&why)) << why;
    return dag;
}

/**
 * Multi-consumer DAG: relu feeds both a pool and a residual add, and
 * the add also re-reads the raw conv output —
 *
 *             conv -> bias -> relu -> pool
 *               \______________add___/
 * (add = conv + relu; pool and add are the two graph outputs).
 */
ComputeDag
multiConsumerDag()
{
    ComputeDag dag;
    dag.name = "multi";
    int data = pushInput(dag, "data", {1, 3, 8, 8});
    int conv = pushConv(dag, "conv", data, 5, 3, 1, 1);
    int bvec = pushInput(dag, "conv.b", {5});
    int bias = pushEltwise(dag, NodeKind::Bias, "conv.bias", {conv, bvec});
    int relu = pushEltwise(dag, NodeKind::Relu, "conv.relu", {bias});
    pushPool(dag, "pool", relu, 2, 2);
    pushEltwise(dag, NodeKind::Add, "residual", {conv, relu});
    std::string why;
    EXPECT_TRUE(dag.validate(&why)) << why;
    return dag;
}

/** Assign every compute node of `dag` to one fusion group. */
Partition
wholeDagGroup(const ComputeDag &dag, const Target &target)
{
    std::vector<int> assignment(dag.nodes.size(), -1);
    for (size_t i = 0; i < dag.nodes.size(); ++i)
        if (dag.nodes[i].kind != NodeKind::Input)
            assignment[i] = 0;
    return finalizePartition(dag, assignment, target);
}

/** Exact comparison of every non-ephemeral output, fused vs unfused. */
void
expectBitIdentical(const ComputeDag &dag, const Partition &partition,
                   const DagBuffers &fused, const DagBuffers &unfused)
{
    for (const FusionGroup &group : partition.groups)
        for (size_t m = 0; m < group.members.size(); ++m) {
            const int id = group.members[m];
            if (group.ephemeral[m]) {
                EXPECT_EQ(fused.count(id), 0u)
                    << "ephemeral " << dag.nodes[id].name
                    << " materialized a full buffer";
                continue;
            }
            ASSERT_EQ(fused.count(id), 1u) << dag.nodes[id].name;
            const DagTensor &a = fused.at(id);
            const DagTensor &b = unfused.at(id);
            ASSERT_EQ(a.numel(), b.numel());
            for (int64_t i = 0; i < a.numel(); ++i)
                ASSERT_EQ(a.data[i], b.data[i])
                    << dag.nodes[id].name << " element " << i
                    << " diverged (fused streaming bug)";
        }
}

TEST(GraphDagTest, NetworkDagsValidateAndFingerprintsAreStable)
{
    for (const Network &net : {yoloV1(), overFeat()}) {
        ComputeDag dag = dagFromNetwork(net);
        std::string why;
        EXPECT_TRUE(dag.validate(&why)) << why;
        EXPECT_EQ(dag.fingerprint(), dagFromNetwork(net).fingerprint());
        // Every layer maps to at least one compute node.
        EXPECT_GE(dag.numComputeNodes(),
                  static_cast<int>(net.layers.size()));
    }
    EXPECT_NE(dagFromNetwork(yoloV1()).fingerprint(),
              dagFromNetwork(overFeat()).fingerprint());
}

TEST(GraphDagTest, EpiloguePartitionMatchesLegacyGrouping)
{
    const Network net = overFeat();
    const ComputeDag dag = dagFromNetwork(net);
    const Target target = Target::forGpu(v100());
    Partition epi = epiloguePartition(dag, target);
    // One group per layer: conv + bias + relu, a lone pool, and the
    // final dense with its bias but no relu.
    ASSERT_EQ(epi.groups.size(), net.layers.size());
    for (size_t g = 0; g < epi.groups.size(); ++g) {
        const FusionGroup &group = epi.groups[g];
        const DagNode &first = dag.nodes[group.members.front()];
        EXPECT_EQ(first.name, net.layers[g].name);
        size_t want = first.kind == NodeKind::Pool ? 1 : 3;
        if (g + 1 == epi.groups.size())
            want = 2;
        EXPECT_EQ(group.members.size(), want) << first.name;
    }
    EXPECT_EQ(dag.nodes[epi.groups.back().members.front()].kind,
              NodeKind::Dense);
    std::string why;
    EXPECT_TRUE(checkPartition(dag, epi, target, &why)) << why;
}

TEST(GraphDifferentialTest, FusedChainMatchesUnfusedBitForBit)
{
    const ComputeDag dag = chainDag();
    const Target target = Target::forGpu(v100());
    const Partition partition = wholeDagGroup(dag, target);
    std::string why;
    ASSERT_TRUE(checkPartition(dag, partition, target, &why)) << why;
    // conv, bias, relu die inside the group; only the pool output is real.
    EXPECT_EQ(partition.ephemeralBytes,
              dag.nodes[2].bytes() * 3); // three (1,6,10,10) tensors

    Rng rng(0x9a001);
    DagBuffers inputs = makeDagInputs(dag, rng);
    DagBuffers fused = inputs, unfused = inputs;
    FusedRunStats stats;
    runFusedPartition(dag, partition, target, fused, &stats);
    runDagReference(dag, unfused);
    expectBitIdentical(dag, partition, fused, unfused);

    // The executor's rings stay within the roofline's working-set
    // charge: the model bound is enforced by construction.
    EXPECT_LE(stats.scratchPeakBytes,
              partition.groups[0].cost.workingSetBytes);
    EXPECT_EQ(stats.ephemeralBytes, partition.ephemeralBytes);
}

TEST(GraphDifferentialTest, MultiConsumerEphemeralMatchesBitForBit)
{
    const ComputeDag dag = multiConsumerDag();
    const Target target = Target::forCpu(xeonE5());
    const Partition partition = wholeDagGroup(dag, target);
    std::string why;
    ASSERT_TRUE(checkPartition(dag, partition, target, &why)) << why;

    Rng rng(0x9a002);
    DagBuffers inputs = makeDagInputs(dag, rng);
    DagBuffers fused = inputs, unfused = inputs;
    runFusedPartition(dag, partition, target, fused, nullptr);
    runDagReference(dag, unfused);
    expectBitIdentical(dag, partition, fused, unfused);

    // The beam search must also produce a legal partition here, and
    // fusing can only reduce modeled traffic vs the epilogue grouping.
    Partition beam = partitionDag(dag, target);
    ASSERT_TRUE(checkPartition(dag, beam, target, &why)) << why;
    EXPECT_LE(beam.totalTrafficBytes,
              epiloguePartition(dag, target).totalTrafficBytes);
}

/**
 * The core acceptance property: on anchors computed by SAMPLED SCHEDULE
 * POINTS (different tilings, orders, and vector widths), the fused
 * streaming epilogue must match the unfused layer-by-layer reference
 * bit-for-bit. Both sides adopt the same scheduled anchor output, so
 * any divergence is the fused path's fault, not reduction reordering.
 */
TEST(GraphDifferentialTest, SampledSchedulePointsMatchBitForBit)
{
    const ComputeDag dag = chainDag();
    const int conv = 2; // node id of the conv anchor in chainDag()
    ASSERT_TRUE(dag.nodes[conv].isHeavy());

    for (int t = 0; t < 2; ++t) {
        const Target target = t == 0 ? Target::forGpu(v100())
                                     : Target::forCpu(xeonE5());
        const Partition partition = wholeDagGroup(dag, target);
        const int64_t cap = tierSpecFor(target).tier2Bytes;

        LoweredAnchor lowered = lowerAnchor(dag, conv);
        MiniGraph g(lowered.output);
        Operation anchor = anchorOp(g);
        ScheduleSpace space = buildSpace(anchor, target);

        Rng rng(0x9a003u + static_cast<uint64_t>(t));
        DagBuffers inputs = makeDagInputs(dag, rng);
        BufferMap ir = bindOperands(lowered, inputs);
        runGraphReference(g, ir); // materializes the pad helper node

        const int samples = std::max(4, fuzzSamples() / 25);
        for (int trial = 0; trial < samples; ++trial) {
            Point p = space.randomPoint(rng);
            OpConfig cfg = space.decode(p);
            Scheduled s = generate(anchor, cfg, target);

            BufferMap run = ir;
            run.erase(anchor.get());
            runScheduled(s.nest, run, 1 + trial % 3);

            DagBuffers fused = inputs, unfused = inputs;
            adoptAnchorOutput(lowered, run, conv, dag, fused);
            adoptAnchorOutput(lowered, run, conv, dag, unfused);
            for (const FusionGroup &group : partition.groups)
                runFusedGroup(dag, group, fused, cap, nullptr);
            runDagReference(dag, unfused);

            // The anchor is shared, so only downstream members differ.
            for (const FusionGroup &group : partition.groups)
                for (size_t m = 0; m < group.members.size(); ++m) {
                    const int id = group.members[m];
                    if (id == conv || group.ephemeral[m])
                        continue;
                    const DagTensor &a = fused.at(id);
                    const DagTensor &b = unfused.at(id);
                    ASSERT_EQ(a.numel(), b.numel());
                    for (int64_t i = 0; i < a.numel(); ++i)
                        ASSERT_EQ(a.data[i], b.data[i])
                            << "point " << p.key() << " node "
                            << dag.nodes[id].name << " element " << i;
                }
        }
    }
}

/** Seeded random DAG: chains with branches, pools, and residual adds. */
ComputeDag
randomDag(Rng &rng)
{
    ComputeDag dag;
    dag.name = "fuzzdag";
    const int64_t C = 1 + static_cast<int64_t>(rng.below(3));
    const int64_t H = 6 + 2 * static_cast<int64_t>(rng.below(3));
    int cur = pushInput(dag, "data", {1, C, H, H});
    std::vector<int> sameShape; // candidates for residual adds
    const int layers = 2 + static_cast<int>(rng.below(5));
    for (int l = 0; l < layers; ++l) {
        const std::string tag = "n" + std::to_string(l);
        const auto &shape = dag.nodes[cur].shape;
        switch (rng.below(5)) {
          case 0: { // conv (3x3, pad 1: shape-preserving spatially)
            cur = pushConv(dag, tag + ".conv", cur,
                           1 + static_cast<int64_t>(rng.below(4)), 3, 1, 1);
            sameShape.clear();
            break;
          }
          case 1: { // pool, when the spatial extent allows it
            if (shape[2] >= 4) {
                cur = pushPool(dag, tag + ".pool", cur, 2, 2);
                sameShape.clear();
            }
            break;
          }
          case 2: { // bias
            int b = pushInput(dag, tag + ".b", {shape[1]});
            cur = pushEltwise(dag, NodeKind::Bias, tag + ".bias",
                              {cur, b});
            break;
          }
          case 3: // relu
            cur = pushEltwise(dag, NodeKind::Relu, tag + ".relu", {cur});
            break;
          case 4: { // residual add against an earlier same-shape node
            if (!sameShape.empty()) {
                int other = sameShape[rng.index(sameShape.size())];
                cur = pushEltwise(dag, NodeKind::Add, tag + ".add",
                                  {other, cur});
            } else {
                cur = pushEltwise(dag, NodeKind::Relu, tag + ".relu",
                                  {cur});
            }
            break;
          }
        }
        sameShape.push_back(cur);
    }
    std::string why;
    EXPECT_TRUE(dag.validate(&why)) << why;
    return dag;
}

/**
 * Partitioner property fuzz: for every seeded random DAG, the beam
 * search must produce a partition satisfying ALL invariants (exactly-one
 * group, acyclic quotient, no ephemeral escape, working set within
 * capacity). checkPartition appends the DAG spec to its message, so a
 * failure here prints everything needed to replay the offending DAG.
 */
TEST(FuzzGraphPartitionTest, RandomDagsSatisfyAllPartitionInvariants)
{
    const int rounds = std::max(8, fuzzSamples() / 4);
    for (int round = 0; round < rounds; ++round) {
        Rng rng(0xda60000u + static_cast<uint64_t>(round));
        ComputeDag dag = randomDag(rng);
        const Target target = round % 2 == 0 ? Target::forGpu(v100())
                                             : Target::forCpu(xeonE5());
        std::string why;
        Partition beam = partitionDag(dag, target);
        ASSERT_TRUE(checkPartition(dag, beam, target, &why))
            << "seed " << round << ": " << why;
        // The baselines must be legal partitions of the same DAG too.
        ASSERT_TRUE(
            checkPartition(dag, epiloguePartition(dag, target), target,
                           &why))
            << "seed " << round << ": " << why;
        ASSERT_TRUE(checkPartition(dag, nonePartition(dag, target), target,
                                   &why))
            << "seed " << round << ": " << why;
        // Fusion never increases modeled DRAM traffic over unfused.
        EXPECT_LE(beam.totalTrafficBytes,
                  nonePartition(dag, target).totalTrafficBytes)
            << "seed " << round;
    }
}

/**
 * Executor fuzz: on the same seeded random DAGs, the fused streaming
 * run of the searched partition must match the unfused reference
 * bit-for-bit, with ring scratch within the modeled working set.
 */
TEST(FuzzGraphPartitionTest, RandomDagsFusedMatchesUnfusedBitForBit)
{
    const int rounds = std::max(6, fuzzSamples() / 10);
    for (int round = 0; round < rounds; ++round) {
        Rng rng(0xdb70000u + static_cast<uint64_t>(round));
        ComputeDag dag = randomDag(rng);
        const Target target = round % 2 == 0 ? Target::forGpu(v100())
                                             : Target::forCpu(xeonE5());
        Partition partition = partitionDag(dag, target);

        DagBuffers inputs = makeDagInputs(dag, rng);
        DagBuffers fused = inputs, unfused = inputs;
        FusedRunStats stats;
        runFusedPartition(dag, partition, target, fused, &stats);
        runDagReference(dag, unfused);
        expectBitIdentical(dag, partition, fused, unfused);

        int64_t maxWorkingSet = 0;
        for (const FusionGroup &g : partition.groups)
            maxWorkingSet =
                std::max(maxWorkingSet, g.cost.workingSetBytes);
        EXPECT_LE(stats.scratchPeakBytes, maxWorkingSet)
            << "seed " << round << " rings exceed the modeled working set\n"
            << dag.spec();
    }
}

/**
 * Slow oracle of partitionDag: the same beam search, but every candidate
 * state is re-scored from scratch — every group, at every step — and a
 * sink move scores an all-false-ephemeral probe for feasibility before
 * the full rescore, and the acyclicity check rebuilds the quotient.
 * partitionDag instead updates the destination group's running sums
 * from the placed node's edges, keeps the quotient's closure as
 * bitsets, and ranks moves before building states; this reference
 * pins those shortcuts to the exhaustive arithmetic bit for bit.
 */
namespace reference {

struct State
{
    std::vector<int> assignment;
    int numGroups = 0;
    double seconds = 0.0;
    int64_t traffic = 0;

    bool operator<(const State &other) const
    {
        if (seconds != other.seconds)
            return seconds < other.seconds;
        if (traffic != other.traffic)
            return traffic < other.traffic;
        return assignment < other.assignment;
    }
};

void
scoreAllGroups(const ComputeDag &dag,
               const std::vector<std::vector<int>> &consumers,
               const Target &target, State &state)
{
    std::map<int, std::vector<int>> groups;
    for (size_t i = 0; i < state.assignment.size(); ++i)
        if (state.assignment[i] >= 0)
            groups[state.assignment[i]].push_back(static_cast<int>(i));
    state.seconds = 0.0;
    state.traffic = 0;
    for (const auto &kv : groups) {
        std::vector<bool> eph(kv.second.size());
        for (size_t m = 0; m < kv.second.size(); ++m) {
            const int id = kv.second[m];
            bool e = !consumers[id].empty();
            for (int c : consumers[id])
                e = e && state.assignment[c] == state.assignment[id];
            eph[m] = e;
        }
        GroupCost cost =
            rooflineGroupCost(dag, consumers, kv.second, eph, target);
        state.seconds += cost.seconds;
        state.traffic += cost.memInBytes + cost.memOutBytes;
    }
}

bool
sinkKeepsAcyclic(const ComputeDag &dag, const std::vector<int> &assignment,
                 int node, int label)
{
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

Partition
partitionDag(const ComputeDag &dag, const Target &target,
             const PartitionOptions &options)
{
    const auto consumers = dag.consumers();
    std::vector<State> beam(1);
    beam[0].assignment.assign(dag.nodes.size(), -1);
    for (size_t v = 0; v < dag.nodes.size(); ++v) {
        const DagNode &node = dag.nodes[v];
        if (node.kind == NodeKind::Input)
            continue;
        std::vector<State> next;
        for (const State &state : beam) {
            {
                State s = state;
                s.assignment[v] = s.numGroups++;
                scoreAllGroups(dag, consumers, target, s);
                next.push_back(std::move(s));
            }
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
                GroupCost probe = rooflineGroupCost(
                    dag, consumers, members,
                    std::vector<bool>(members.size(), false), target);
                if (!probe.feasible)
                    continue;
                State s = state;
                s.assignment[v] = label;
                scoreAllGroups(dag, consumers, target, s);
                next.push_back(std::move(s));
            }
        }
        std::sort(next.begin(), next.end());
        if (static_cast<int>(next.size()) > options.beamWidth)
            next.resize(options.beamWidth);
        beam = std::move(next);
    }
    for (const State &state : beam) {
        Partition p = finalizePartition(dag, state.assignment, target);
        if (verify::certifyPartition(dag, p, target).equivalent())
            return p;
    }
    return nonePartition(dag, target);
}

} // namespace reference

/**
 * Seeded random DAG of 20-60 layers for the partitioner oracle: each
 * layer extends a random live branch (so tensors fan out), convs keep
 * one of two channel counts and the spatial extent, and residual adds
 * join any two same-shape tensors, also across convs. Such an add
 * whose operands sit in two groups with a quotient path between them
 * is a sink the acyclicity check must reject.
 */
ComputeDag
largeRandomDag(Rng &rng)
{
    ComputeDag dag;
    dag.name = "fuzzdag-large";
    const int64_t channels[] = {1 + static_cast<int64_t>(rng.below(2)),
                                2 + static_cast<int64_t>(rng.below(2))};
    const int64_t H = 6 + 2 * static_cast<int64_t>(rng.below(2));
    std::vector<int> live = {
        pushInput(dag, "data", {1, channels[0], H, H})};
    const int layers = 20 + static_cast<int>(rng.below(41));
    for (int l = 0; l < layers; ++l) {
        const std::string tag = "n" + std::to_string(l);
        const int from = live[rng.index(live.size())];
        const auto shape = dag.nodes[from].shape;
        int made = -1;
        switch (rng.below(6)) {
          case 0:
            made = pushConv(dag, tag + ".conv", from,
                            channels[rng.below(2)], 3, 1, 1);
            break;
          case 1:
            if (shape[2] >= 4)
                made = pushPool(dag, tag + ".pool", from, 2, 2);
            break;
          case 2: {
            int b = pushInput(dag, tag + ".b", {shape[1]});
            made = pushEltwise(dag, NodeKind::Bias, tag + ".bias",
                               {from, b});
            break;
          }
          case 3:
            made = pushEltwise(dag, NodeKind::Relu, tag + ".relu", {from});
            break;
          default: { // residual add with any other same-shape tensor
            std::vector<int> same;
            for (size_t i = 0; i < dag.nodes.size(); ++i)
                if (static_cast<int>(i) != from &&
                    dag.nodes[i].kind != NodeKind::Input &&
                    dag.nodes[i].shape == shape)
                    same.push_back(static_cast<int>(i));
            if (!same.empty())
                made = pushEltwise(dag, NodeKind::Add, tag + ".add",
                                   {same[rng.index(same.size())], from});
            break;
          }
        }
        if (made < 0)
            made = pushEltwise(dag, NodeKind::Relu, tag + ".relu", {from});
        // Usually the branch moves on; sometimes it also stays live,
        // so a later layer reads it again.
        if (rng.below(3) == 0)
            live.push_back(made);
        else
            std::replace(live.begin(), live.end(), from, made);
    }
    std::string why;
    EXPECT_TRUE(dag.validate(&why)) << why;
    return dag;
}

/**
 * Sink moves of the winning beam state's lineage that the acyclicity
 * check rejected. Every prefix of the winner's assignment was a beam
 * state at its step, so each counted move was one the search scored
 * and dropped; the count shows the corpus reaches the check's
 * rejecting path, not only its no-new-edge shortcut.
 */
int
lineageCyclicSinks(const ComputeDag &dag, const Partition &partition,
                   const PartitionOptions &options)
{
    std::vector<int> prefix(dag.nodes.size(), -1);
    std::vector<int> size(partition.groups.size(), 0);
    int rejected = 0;
    for (size_t v = 0; v < dag.nodes.size(); ++v) {
        const DagNode &node = dag.nodes[v];
        if (node.kind == NodeKind::Input)
            continue;
        if (!node.isHeavy()) {
            std::set<int> tried;
            for (int in : node.inputs) {
                const int label = prefix[in];
                if (label < 0 || !tried.insert(label).second ||
                    size[label] >= options.maxGroupSize)
                    continue;
                rejected += !reference::sinkKeepsAcyclic(
                    dag, prefix, static_cast<int>(v), label);
            }
        }
        prefix[v] = partition.groupOf(static_cast<int>(v));
        ++size[prefix[v]];
    }
    return rejected;
}

/** Exact (==, not a tolerance) equality of two partitions. */
void
expectSamePartition(const Partition &a, const Partition &b,
                    const std::string &what)
{
    ASSERT_EQ(a.groups.size(), b.groups.size()) << what;
    for (size_t g = 0; g < a.groups.size(); ++g) {
        EXPECT_EQ(a.groups[g].members, b.groups[g].members)
            << what << " group " << g;
        EXPECT_EQ(a.groups[g].ephemeral, b.groups[g].ephemeral)
            << what << " group " << g;
        EXPECT_EQ(a.groups[g].cost.seconds, b.groups[g].cost.seconds)
            << what << " group " << g;
    }
    EXPECT_EQ(a.totalSeconds, b.totalSeconds) << what;
    EXPECT_EQ(a.totalTrafficBytes, b.totalTrafficBytes) << what;
    EXPECT_EQ(a.ephemeralBytes, b.ephemeralBytes) << what;
}

TEST(GraphPartitionOracleTest, NetworksMatchFullRescoreBitForBit)
{
    // Besides the paper's devices, a V100 whose L2 holds about one conv
    // row slab, so the capacity bound rejects sink moves.
    GpuSpec smallL2 = v100();
    smallL2.name = "V100-64KiB-L2";
    smallL2.l2Bytes = 64 * 1024;
    for (const Network &net : {yoloV1(), overFeat()}) {
        const ComputeDag dag = dagFromNetwork(net);
        for (const Target &target :
             {Target::forGpu(v100()), Target::forCpu(xeonE5()),
              Target::forGpu(smallL2)})
            for (int beamWidth : {1, 4, 8, 16})
                for (int maxGroupSize : {2, 8}) {
                    PartitionOptions options;
                    options.beamWidth = beamWidth;
                    options.maxGroupSize = maxGroupSize;
                    expectSamePartition(
                        partitionDag(dag, target, options),
                        reference::partitionDag(dag, target, options),
                        dag.name + " on " + target.deviceName() +
                            " beam " + std::to_string(beamWidth) +
                            " max group " + std::to_string(maxGroupSize));
                }
    }
}

TEST(GraphPartitionOracleTest, RandomDagsMatchFullRescoreBitForBit)
{
    const int beamWidths[] = {1, 4, 8, 16};
    const int maxGroupSizes[] = {2, 8};
    for (int round = 0; round < 200; ++round) {
        Rng rng(0xdc80000u + static_cast<uint64_t>(round));
        const ComputeDag dag = randomDag(rng);
        const Target target = round % 2 == 0 ? Target::forGpu(v100())
                                             : Target::forCpu(xeonE5());
        PartitionOptions options;
        options.beamWidth = beamWidths[(round / 2) % 4];
        options.maxGroupSize = maxGroupSizes[(round / 8) % 2];
        expectSamePartition(partitionDag(dag, target, options),
                            reference::partitionDag(dag, target, options),
                            "seed " + std::to_string(round) + "\n" +
                                dag.spec());
    }
}

TEST(GraphPartitionOracleTest, LargeRandomDagsMatchFullRescoreBitForBit)
{
    int cyclicSinks = 0;
    for (int round = 0; round < 12; ++round) {
        Rng rng(0xdd90000u + static_cast<uint64_t>(round));
        const ComputeDag dag = largeRandomDag(rng);
        const Target target = round % 2 == 0 ? Target::forGpu(v100())
                                             : Target::forCpu(xeonE5());
        for (int beamWidth : {1, 4, 8, 16})
            for (int maxGroupSize : {2, 8}) {
                PartitionOptions options;
                options.beamWidth = beamWidth;
                options.maxGroupSize = maxGroupSize;
                const Partition beam = partitionDag(dag, target, options);
                expectSamePartition(
                    beam, reference::partitionDag(dag, target, options),
                    "seed " + std::to_string(round) + " beam " +
                        std::to_string(beamWidth) + " max group " +
                        std::to_string(maxGroupSize) + "\n" + dag.spec());
                cyclicSinks += lineageCyclicSinks(dag, beam, options);
            }
    }
    EXPECT_GT(cyclicSinks, 0)
        << "no sink move of the corpus closes a quotient cycle";
}

TEST(GraphScheduleTest, TuneDagStitchesGroupsAndAccountsTraffic)
{
    const ComputeDag dag = chainDag();
    const Target target = Target::forGpu(v100());
    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 4;
    options.explore.warmupPoints = 2;
    options.explore.seed = 0x6eed;

    TraceRecorder trace;
    options.explore.obs.trace = &trace;
    DagTuneReport rep = tuneDag(dag, target, options);

    EXPECT_EQ(rep.fingerprint, dag.fingerprint());
    EXPECT_EQ(rep.groups.size(), rep.partition.groups.size());
    EXPECT_GT(rep.totalSeconds, 0.0);
    EXPECT_GT(rep.ephemeralBytes, 0); // fusion found something to sink
    std::string why;
    EXPECT_TRUE(checkPartition(dag, rep.partition, target, &why)) << why;

    // Exactly one tuned anchor (the conv); its group absorbed the rest.
    int tuned = 0;
    for (const SubgraphReport &sub : rep.groups)
        tuned += sub.tuned;
    EXPECT_EQ(tuned, 1);

    // The new spans are on the timeline.
    int partitionSpans = 0, subgraphSpans = 0, graphRuns = 0;
    for (const std::string &line : trace.lines()) {
        auto ev = parseTraceLine(line);
        ASSERT_TRUE(ev.has_value()) << line;
        if (ev->name == "graph.partition" && ev->type == 'B')
            ++partitionSpans;
        if (ev->name == "graph.subgraph" && ev->type == 'B')
            ++subgraphSpans;
        if (ev->name == "graph_run" && ev->type == 'M')
            ++graphRuns;
    }
    EXPECT_EQ(graphRuns, 1);
    EXPECT_EQ(partitionSpans, 1);
    EXPECT_EQ(subgraphSpans,
              static_cast<int>(rep.partition.groups.size()));
}

/**
 * Wall attribution of the partitioner: under ObsContext::wallProfile,
 * tuneDag adds partitionDag's wall time to graph.partition.ns and the
 * concurrent anchor searches' to graph.search.ns; without it neither
 * counter exists. The timing never reaches the
 * sim-clocked trace: an anchor-free DAG (nothing to tune, so no
 * evaluator spans) traces byte-identically with profiling on and off,
 * and with an anchor the only difference is the evaluator's own eval.*
 * wall spans.
 */
TEST(GraphScheduleTest, WallProfileAttributesPartitionTimeOutsideTrace)
{
    ComputeDag poolDag;
    poolDag.name = "pool";
    const int data = pushInput(poolDag, "data", {1, 4, 8, 8});
    const int pool = pushPool(poolDag, "pool", data, 2, 2);
    pushEltwise(poolDag, NodeKind::Relu, "pool.relu", {pool});
    std::string why;
    ASSERT_TRUE(poolDag.validate(&why)) << why;

    const Target target = Target::forCpu(xeonE5());
    uint64_t searchNs = 0;
    auto run = [&](const ComputeDag &dag, bool wallProfile,
                   uint64_t *partitionNs) {
        TraceRecorder trace;
        MetricsRegistry metrics;
        TuneOptions options;
        options.method = Method::Random;
        options.explore.trials = 4;
        options.explore.warmupPoints = 2;
        options.explore.seed = 0x6eed;
        options.explore.obs.trace = &trace;
        options.explore.obs.metrics = &metrics;
        options.explore.obs.wallProfile = wallProfile;
        tuneDag(dag, target, options);
        const MetricsSnapshot snap = metrics.snapshot();
        *partitionNs = snap.counter("graph.partition.ns");
        searchNs = snap.counter("graph.search.ns");
        int present = 0;
        for (const auto &kv : snap.counters)
            present += kv.first == "graph.partition.ns" ||
                       kv.first == "graph.search.ns";
        EXPECT_EQ(present, wallProfile ? 2 : 0);
        return trace.lines();
    };

    uint64_t offNs = 0, onNs = 0;
    EXPECT_EQ(run(poolDag, true, &onNs), run(poolDag, false, &offNs));
    EXPECT_GT(onNs, 0u);

    // With an anchor: drop the eval.* spans and the event index they
    // shift, and the trailing wall `ns` of the space_build span end;
    // everything else matches byte for byte.
    int wallSpans = 0;
    auto withoutWall = [&wallSpans](const std::vector<std::string> &lines) {
        std::vector<std::string> kept;
        for (const std::string &line : lines) {
            auto ev = parseTraceLine(line);
            EXPECT_TRUE(ev.has_value()) << line;
            if (!ev || ev->name.rfind("eval.", 0) == 0)
                continue;
            EXPECT_FALSE(ev->name == "graph.partition" && ev->has("ns"))
                << line;
            std::string rest = line.substr(line.find(','));
            if (ev->name == "space_build" && ev->has("ns")) {
                ++wallSpans;
                rest = rest.substr(0, rest.rfind(",\"ns\":")) + "}";
            }
            kept.push_back(rest);
        }
        return kept;
    };
    const ComputeDag dag = multiConsumerDag();
    const auto off = run(dag, false, &offNs);
    const auto on = run(dag, true, &onNs);
    EXPECT_GT(onNs, 0u);
    EXPECT_GT(searchNs, 0u);
    EXPECT_GT(on.size(), off.size());
    EXPECT_EQ(withoutWall(off).size(), off.size());
    EXPECT_EQ(wallSpans, 0);
    EXPECT_EQ(withoutWall(on), withoutWall(off));
    EXPECT_EQ(wallSpans, 1);
}

/** The paper's Section 6.6 networks as DAGs, on both devices. */
struct Sec66Job
{
    ComputeDag dag;
    Target target;
};

std::vector<Sec66Job>
sec66Jobs()
{
    std::vector<Sec66Job> jobs;
    for (const Network &net : {yoloV1(1), overFeat(1)})
        for (const Target &target :
             {Target::forGpu(v100()), Target::forCpu(xeonE5())})
            jobs.push_back({dagFromNetwork(net), target});
    return jobs;
}

/** Exact equality of everything a searched TuneReport carries. */
void
expectSameSearch(const TuneReport &got, const TuneReport &want,
                 const std::string &what)
{
    EXPECT_EQ(serializeConfig(got.config), serializeConfig(want.config))
        << what;
    EXPECT_EQ(got.gflops, want.gflops) << what;
    EXPECT_EQ(got.kernelSeconds, want.kernelSeconds) << what;
    EXPECT_EQ(got.simExploreSeconds, want.simExploreSeconds) << what;
    EXPECT_EQ(got.trials, want.trials) << what;
    EXPECT_EQ(got.spaceSize, want.spaceSize) << what;
    EXPECT_EQ(got.device, want.device) << what;
    EXPECT_EQ(got.curve, want.curve) << what;
    EXPECT_EQ(got.fromCache, want.fromCache) << what;
    EXPECT_EQ(got.degraded, want.degraded) << what;
}

/**
 * The anchor memo against its oracle: every group's lowered anchor is
 * also tuned on its own with the same options. A searched group must
 * match that run byte for byte; a reused group must carry its config,
 * gflops and kernelSeconds with no trials, curve or simulated explore
 * time, flagged fromCache. The stitched total equals the total built
 * from the independent runs, and the number of reused groups is pinned:
 * 9 of YOLO-v1's anchors per device repeat an earlier one, none of
 * OverFeat's.
 */
TEST(GraphScheduleTest, AnchorMemoMatchesIndependentTunes)
{
    for (const Sec66Job &job : sec66Jobs()) {
        for (uint64_t seed : {0x3a7ull, 0x51ull, 0xbeefull}) {
            TuneOptions options;
            options.explore.trials = 8;
            options.explore.seed = seed;
            const DagTuneReport rep = tuneDag(job.dag, job.target, options);
            const std::string where = job.dag.name + " on " +
                                      rep.device + " seed " +
                                      std::to_string(seed);
            int reused = 0;
            double total = 0.0;
            for (size_t g = 0; g < rep.groups.size(); ++g) {
                const SubgraphReport &sub = rep.groups[g];
                const std::string what = where + " group " +
                                         std::to_string(g) + " " + sub.name;
                if (sub.anchor < 0) {
                    EXPECT_EQ(sub.reusedFrom, -1) << what;
                    total += sub.cost.seconds;
                    continue;
                }
                const TuneReport solo =
                    tune(lowerAnchor(job.dag, sub.anchor).output,
                         job.target, options);
                if (sub.reusedFrom < 0) {
                    expectSameSearch(sub.report, solo, what);
                } else {
                    ++reused;
                    ASSERT_LT(sub.reusedFrom, static_cast<int>(g)) << what;
                    EXPECT_EQ(rep.groups[sub.reusedFrom].reusedFrom, -1)
                        << what;
                    EXPECT_EQ(serializeConfig(sub.report.config),
                              serializeConfig(solo.config))
                        << what;
                    EXPECT_EQ(sub.report.gflops, solo.gflops) << what;
                    EXPECT_EQ(sub.report.kernelSeconds, solo.kernelSeconds)
                        << what;
                    EXPECT_EQ(sub.report.spaceSize, solo.spaceSize) << what;
                    EXPECT_EQ(sub.report.trials, 0) << what;
                    EXPECT_EQ(sub.report.simExploreSeconds, 0.0) << what;
                    EXPECT_TRUE(sub.report.curve.empty()) << what;
                    EXPECT_TRUE(sub.report.fromCache) << what;
                }
                total += std::max(solo.kernelSeconds, sub.cost.memSeconds);
            }
            EXPECT_EQ(rep.totalSeconds, total) << where;
            EXPECT_EQ(reused, job.dag.name == "YOLO-v1" ? 9 : 0) << where;
        }
    }
}

/**
 * A reused group's span holds one cached `report` point naming the
 * group it repeats, and no run; with certify it still certifies its own
 * anchor. Under wallProfile the reuse is counted in
 * graph.anchors_reused and the init memo's hits in q.init.reused.
 */
TEST(GraphScheduleTest, ReusedGroupTracesCachedReport)
{
    const Sec66Job job = sec66Jobs().front(); // YOLO-v1 on V100
    TraceRecorder trace;
    MetricsRegistry metrics;
    TuneOptions options;
    options.explore.trials = 8;
    options.certify = true;
    options.explore.obs.trace = &trace;
    options.explore.obs.metrics = &metrics;
    options.explore.obs.wallProfile = true;
    const DagTuneReport rep = tuneDag(job.dag, job.target, options);

    int runs = 0, reusedPoints = 0, certificates = 0;
    int group = -1;
    for (const std::string &line : trace.lines()) {
        auto ev = parseTraceLine(line);
        ASSERT_TRUE(ev.has_value()) << line;
        if (ev->name == "graph.subgraph" && ev->type == 'B')
            ++group;
        if (ev->name == "run" && ev->type == 'M') {
            ++runs;
            EXPECT_EQ(rep.groups[group].reusedFrom, -1);
        }
        if (ev->name == "certificate" && ev->type == 'P')
            ++certificates;
        if (ev->name == "report" && ev->has("reused_from")) {
            ++reusedPoints;
            const SubgraphReport &sub = rep.groups[group];
            EXPECT_EQ(ev->integer("reused_from"), sub.reusedFrom);
            EXPECT_EQ(ev->str("cached"), "true");
            EXPECT_EQ(ev->integer("trials"), 0);
            ASSERT_NE(sub.report.certificate, nullptr) << sub.name;
            EXPECT_TRUE(sub.report.certificate->equivalent()) << sub.name;
        }
    }
    int tuned = 0;
    for (const SubgraphReport &sub : rep.groups)
        tuned += sub.tuned;
    EXPECT_EQ(reusedPoints, 9);
    EXPECT_EQ(runs, tuned - 9);
    // One per tuned group plus the partition certificate.
    EXPECT_EQ(certificates, tuned + 1);

    const MetricsSnapshot snap = metrics.snapshot();
    EXPECT_EQ(snap.counter("graph.anchors_reused"), 9u);
    EXPECT_EQ(snap.counter("tuner.runs"), static_cast<uint64_t>(runs));
    EXPECT_GT(snap.counter("q.init.reused"), 0u);

    const TraceReport folded = foldTrace([&] {
        std::vector<ParsedTraceEvent> events;
        for (const std::string &line : trace.lines())
            events.push_back(*parseTraceLine(line));
        return events;
    }());
    ASSERT_EQ(folded.graph.subgraphs.size(), rep.groups.size());
    for (size_t g = 0; g < rep.groups.size(); ++g)
        EXPECT_EQ(folded.graph.subgraphs[g].reusedFrom,
                  rep.groups[g].reusedFrom);
}

/**
 * A tuning cache keys on the anchor's OpKey and the device, so it keeps
 * runs pure: with one attached, YOLO-v1's 9 repeated anchors still
 * reuse the first search, every group reports what a call without the
 * cache reports, and the cache holds one entry per distinct structural
 * key (17 on V100, where the string key tuningKeyFor sees only 16).
 */
/** Modeled seconds of the expert schedule of a group's anchor. */
double
expertSeconds(const ComputeDag &dag, int anchor, const Target &target)
{
    MiniGraph graph(lowerAnchor(dag, anchor).output);
    const Operation op = anchorOp(graph);
    const PerfResult perf = modelPerf(
        generate(op, expertConfig(op, target), target).features, target);
    EXPECT_TRUE(perf.valid) << dag.nodes[anchor].name;
    return perf.seconds;
}

/**
 * A search that finds no valid schedule is a failure, never a free
 * kernel: YOLO-v1 on V100 with 6 random trials leaves several anchors
 * without one, and each such group must cost at least its expert
 * schedule, flagged as a fallback in the report and the trace.
 */
TEST(GraphScheduleTest, FailedSearchIsChargedTheExpertSchedule)
{
    const ComputeDag dag = dagFromNetwork(yoloV1(1));
    const Target target = Target::forGpu(v100());
    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 6;
    TraceRecorder trace;
    options.explore.obs.trace = &trace;
    const DagTuneReport rep = tuneDag(dag, target, options);
    int failed = 0, memoryOnly = 0;
    for (const SubgraphReport &sub : rep.groups) {
        if (sub.anchor < 0)
            continue;
        EXPECT_EQ(sub.fallback, !sub.report.valid) << sub.name;
        if (sub.report.valid)
            continue;
        ++failed;
        const double expert = expertSeconds(dag, sub.anchor, target);
        EXPECT_GE(sub.seconds, expert) << sub.name;
        // Charging such a group only its memory side, as a zero-second
        // kernel would, undercuts the expert schedule.
        if (sub.cost.memSeconds < expert)
            ++memoryOnly;
    }
    EXPECT_GT(failed, 0);
    EXPECT_GT(memoryOnly, 0);
    const std::string jsonl = trace.toJsonl();
    size_t flagged = 0;
    for (size_t at = jsonl.find("\"fallback\":true");
         at != std::string::npos; at = jsonl.find("\"fallback\":true", at + 1))
        ++flagged;
    EXPECT_EQ(flagged, static_cast<size_t>(failed));
}

/** A search whose every trial is rejected stores nothing in the cache. */
TEST(GraphScheduleTest, AllInvalidSearchLeavesTheCacheEmpty)
{
    const ComputeDag dag = dagFromNetwork(yoloV1(1));
    const Target target = Target::forGpu(v100());
    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 6;
    const DagTuneReport rep = tuneDag(dag, target, options);
    int anchor = -1;
    for (const SubgraphReport &sub : rep.groups) {
        if (sub.anchor >= 0 && !sub.report.valid) {
            anchor = sub.anchor;
            break;
        }
    }
    ASSERT_GE(anchor, 0) << "no search failed";
    TuningCache cache;
    options.cache = &cache;
    const TuneReport solo =
        tune(lowerAnchor(dag, anchor).output, target, options);
    EXPECT_FALSE(solo.valid);
    EXPECT_EQ(solo.kernelSeconds, 0.0);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(GraphScheduleTest, AnchorMemoOnWithTuningCache)
{
    const Sec66Job job = sec66Jobs().front(); // YOLO-v1 on V100
    TuneOptions options;
    options.explore.trials = 4;
    const DagTuneReport plain = tuneDag(job.dag, job.target, options);
    TuningCache cache;
    options.cache = &cache;
    const DagTuneReport rep = tuneDag(job.dag, job.target, options);

    ASSERT_EQ(rep.groups.size(), plain.groups.size());
    int reused = 0;
    std::set<uint64_t> keys;
    for (size_t g = 0; g < rep.groups.size(); ++g) {
        const SubgraphReport &sub = rep.groups[g];
        EXPECT_EQ(sub.reusedFrom, plain.groups[g].reusedFrom) << sub.name;
        if (sub.anchor < 0)
            continue;
        reused += sub.reusedFrom >= 0;
        keys.insert(workloadKey(lowerAnchor(job.dag, sub.anchor).output.op(),
                                rep.device));
        expectSameSearch(sub.report, plain.groups[g].report, sub.name);
    }
    EXPECT_EQ(reused, 9);
    EXPECT_EQ(keys.size(), 17u);
    EXPECT_EQ(cache.size(), keys.size());
    EXPECT_EQ(rep.totalSeconds, plain.totalSeconds);
}

/**
 * A checkpointed call snapshots each searched anchor to a file of its
 * own, `<checkpointPath>.<workloadKey as 16 hex digits>`, so its
 * searches memoize and run concurrently like any other call's, with the
 * reports of an uncheckpointed call. A repeat call resumes every search
 * from its own file and reports the same configs and GFLOPS.
 */
TEST(GraphScheduleTest, CheckpointedCallResumesEachAnchorFromItsOwnFile)
{
    const std::string dir = ::testing::TempDir() + "ft_dag_ckpt";
    for (const Sec66Job &job : sec66Jobs()) {
        if (job.target.kind != DeviceKind::Gpu)
            continue;
        SCOPED_TRACE(job.dag.name);
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        TuneOptions options;
        options.explore.trials = 6;
        const DagTuneReport plain = tuneDag(job.dag, job.target, options);
        options.explore.checkpointPath = dir + "/run.ckpt";
        options.explore.checkpointEveryTrials = 2;
        const DagTuneReport first = tuneDag(job.dag, job.target, options);
        const DagTuneReport again = tuneDag(job.dag, job.target, options);

        ASSERT_EQ(first.groups.size(), plain.groups.size());
        ASSERT_EQ(again.groups.size(), plain.groups.size());
        std::set<std::string> files;
        for (size_t g = 0; g < plain.groups.size(); ++g) {
            const SubgraphReport &sub = first.groups[g];
            EXPECT_EQ(sub.reusedFrom, plain.groups[g].reusedFrom) << g;
            EXPECT_EQ(again.groups[g].reusedFrom, sub.reusedFrom) << g;
            if (sub.anchor < 0 || sub.reusedFrom >= 0)
                continue;
            expectSameSearch(sub.report, plain.groups[g].report, sub.name);
            EXPECT_FALSE(sub.report.resumed) << sub.name;
            const TuneReport &resumed = again.groups[g].report;
            EXPECT_TRUE(resumed.resumed) << sub.name;
            EXPECT_EQ(serializeConfig(resumed.config),
                      serializeConfig(sub.report.config))
                << sub.name;
            EXPECT_EQ(resumed.gflops, sub.report.gflops) << sub.name;
            char hexKey[17];
            std::snprintf(
                hexKey, sizeof(hexKey), "%016" PRIx64,
                workloadKey(lowerAnchor(job.dag, sub.anchor).output.op(),
                            first.device));
            files.insert("run.ckpt." + std::string(hexKey));
        }
        EXPECT_EQ(first.totalSeconds, plain.totalSeconds);
        EXPECT_EQ(again.totalSeconds, plain.totalSeconds);
        std::set<std::string> written;
        for (const auto &entry : std::filesystem::directory_iterator(dir))
            written.insert(entry.path().filename().string());
        EXPECT_EQ(written, files);
        EXPECT_EQ(files.size(), job.dag.name == "OverFeat" ? 8u : 17u);
    }
    std::filesystem::remove_all(dir);
}

/**
 * A learned cost model carries state from one search into the next, so
 * such a run searches every group again, repeats included, one at a
 * time. Each of those searches snapshots to its own file: the first
 * checkpointed call resumes nothing and equals an uncheckpointed call
 * over an identically trained model.
 */
TEST(GraphScheduleTest, CheckpointedCostModelCallSearchesEveryRepeatAfresh)
{
    const Sec66Job job = sec66Jobs().front(); // YOLO-v1 on V100
    const std::string dir = ::testing::TempDir() + "ft_dag_model_ckpt";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    CostModelOptions modelOptions;
    modelOptions.syncRefit = true;
    modelOptions.gbt.trees = 4; // a cheap model still carries state
    CostModel plainModel(modelOptions), checkpointedModel(modelOptions);
    TuneOptions options;
    options.explore.trials = 6;
    options.explore.costModel = &plainModel;
    const DagTuneReport plain = tuneDag(job.dag, job.target, options);
    options.explore.costModel = &checkpointedModel;
    options.explore.checkpointPath = dir + "/run.ckpt";
    options.explore.checkpointEveryTrials = 2;
    const DagTuneReport got = tuneDag(job.dag, job.target, options);

    ASSERT_EQ(got.groups.size(), plain.groups.size());
    size_t searches = 0;
    for (size_t g = 0; g < plain.groups.size(); ++g) {
        const SubgraphReport &sub = got.groups[g];
        EXPECT_EQ(sub.reusedFrom, -1) << sub.name;
        if (sub.anchor < 0)
            continue;
        ++searches;
        EXPECT_FALSE(sub.report.resumed) << sub.name;
        expectSameSearch(sub.report, plain.groups[g].report, sub.name);
    }
    EXPECT_EQ(got.totalSeconds, plain.totalSeconds);
    EXPECT_GT(checkpointedModel.refits(), 0u);
    size_t files = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator(dir))
        ++files;
    EXPECT_EQ(files, searches);
    EXPECT_EQ(searches, 26u);
    std::filesystem::remove_all(dir);
}

/**
 * Two threads tuning the same DAG at once share the process-wide search
 * pool; each gets the report and trace text of a call made alone.
 */
TEST(GraphScheduleTest, ConcurrentCallsMatchASoloCall)
{
    const Sec66Job job = sec66Jobs().front(); // YOLO-v1 on V100
    auto call = [&job](std::string *jsonl) {
        TraceRecorder trace;
        TuneOptions options;
        options.explore.trials = 4;
        options.explore.seed = 0xc0c;
        options.explore.obs.trace = &trace;
        DagTuneReport rep = tuneDag(job.dag, job.target, options);
        *jsonl = trace.toJsonl();
        return rep;
    };
    std::string soloTrace, otherTrace, mainTrace;
    const DagTuneReport solo = call(&soloTrace);
    DagTuneReport other;
    std::thread thread([&] { other = call(&otherTrace); });
    DagTuneReport mine = call(&mainTrace);
    thread.join();

    for (const DagTuneReport *rep : {&other, &mine}) {
        ASSERT_EQ(rep->groups.size(), solo.groups.size());
        for (size_t g = 0; g < solo.groups.size(); ++g) {
            const SubgraphReport &got = rep->groups[g];
            const SubgraphReport &want = solo.groups[g];
            EXPECT_EQ(got.reusedFrom, want.reusedFrom) << want.name;
            EXPECT_EQ(got.seconds, want.seconds) << want.name;
            expectSameSearch(got.report, want.report, want.name);
        }
        EXPECT_EQ(rep->totalSeconds, solo.totalSeconds);
        EXPECT_EQ(rep->simExploreSeconds, solo.simExploreSeconds);
    }
    EXPECT_EQ(otherTrace, soloTrace);
    EXPECT_EQ(mainTrace, soloTrace);
}

/**
 * OpKey over every Section 6.6 anchor, lowered exactly as tuneDag
 * lowers it on both devices: two anchors key equal exactly when their
 * printed mini-graphs match once every DAG name is replaced by one
 * placeholder name. YOLO-v1's conv22 (14x14 input, stride 2) and conv23
 * (7x7, stride 1) share output and reduce extents but not keys.
 */
TEST(GraphOpKeyTest, KeysEqualExactlyWhenMiniGraphsMatch)
{
    std::vector<std::pair<OpKey, std::string>> anchors;
    std::map<std::string, OpKey> yoloKeys;
    for (const Sec66Job &job : sec66Jobs()) {
        ComputeDag renamed = job.dag;
        for (DagNode &node : renamed.nodes)
            node.name = "t";
        const Partition part = partitionDag(job.dag, job.target);
        for (const FusionGroup &group : part.groups) {
            const int anchor = group.anchor(job.dag);
            if (anchor < 0)
                continue;
            const OpKey key = lowerAnchor(job.dag, anchor).output.op()->key();
            const std::string printed =
                toString(MiniGraph(lowerAnchor(renamed, anchor).output));
            anchors.emplace_back(key, printed);
            if (job.dag.name == "YOLO-v1")
                yoloKeys[job.dag.nodes[anchor].name] = key;
        }
    }
    ASSERT_GT(anchors.size(), 60u);
    int equalPairs = 0;
    for (size_t a = 0; a < anchors.size(); ++a) {
        for (size_t b = a + 1; b < anchors.size(); ++b) {
            const bool sameKey = anchors[a].first == anchors[b].first;
            EXPECT_EQ(sameKey, anchors[a].second == anchors[b].second)
                << anchors[a].second << "\nvs\n" << anchors[b].second;
            equalPairs += sameKey;
        }
    }
    EXPECT_GT(equalPairs, 0);
    ASSERT_TRUE(yoloKeys.count("conv22") && yoloKeys.count("conv23"));
    EXPECT_NE(yoloKeys["conv22"], yoloKeys["conv23"]);
}

} // namespace
} // namespace graph
} // namespace ft
