/**
 * @file
 * Tests for the DNN layer: network definitions, shape propagation,
 * partition/fusion, and end-to-end scheduling.
 */
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "dnn/e2e.h"
#include "graph/dag.h"
#include "graph/lower.h"

namespace ft {
namespace {

/** Output shape of every layer: its anchor or pool node in the DAG. */
std::vector<std::vector<int64_t>>
dagLayerShapes(const Network &net)
{
    const graph::ComputeDag dag = graph::dagFromNetwork(net);
    std::vector<std::vector<int64_t>> shapes;
    for (const auto &l : net.layers)
        for (const auto &node : dag.nodes)
            if (node.name == l.name)
                shapes.push_back(node.shape);
    return shapes;
}

TEST(Models, YoloV1Structure)
{
    Network net = yoloV1();
    // Section 6.6: 24 conv layers, ~30 layers total.
    EXPECT_EQ(net.numConvLayers(), 24);
    EXPECT_EQ(net.inputShape, (std::vector<int64_t>{1, 3, 448, 448}));
    EXPECT_EQ(static_cast<int>(net.layers.size()), 30);
}

TEST(Models, OverFeatStructure)
{
    Network net = overFeat();
    // Section 6.6: 5 conv layers, 8 weight layers total.
    EXPECT_EQ(net.numConvLayers(), 5);
    int weight_layers = 0;
    for (const auto &l : net.layers)
        weight_layers += l.kind != LayerSpec::Kind::MaxPool;
    EXPECT_EQ(weight_layers, 8);
}

TEST(Models, YoloShapesPropagate)
{
    Network net = yoloV1();
    auto shapes = dagLayerShapes(net);
    ASSERT_EQ(shapes.size(), net.layers.size());
    // conv1 (7x7, s2, pad 3): 448 -> 224.
    EXPECT_EQ(shapes[0], (std::vector<int64_t>{1, 64, 224, 224}));
    // pool1: 224 -> 112.
    EXPECT_EQ(shapes[1], (std::vector<int64_t>{1, 64, 112, 112}));
    // Final dense layer: 7x7x1024 -> 4096 -> 1470.
    EXPECT_EQ(shapes.back(), (std::vector<int64_t>{1, 1470}));
    // The layer before the head is 7x7 spatial.
    EXPECT_EQ(shapes[shapes.size() - 3],
              (std::vector<int64_t>{1, 1024, 7, 7}));
}

TEST(Models, OverFeatShapesPropagate)
{
    Network net = overFeat();
    auto shapes = dagLayerShapes(net);
    // conv1: (231 - 11)/4 + 1 = 56.
    EXPECT_EQ(shapes[0], (std::vector<int64_t>{1, 96, 56, 56}));
    EXPECT_EQ(shapes.back(), (std::vector<int64_t>{1, 1000}));
}

TEST(Fusion, EpiloguesAreFolded)
{
    // Bias and ReLU fold into their layer: one fused op per layer, not
    // per DAG compute node.
    Network net = overFeat();
    auto fused = partitionAndFuse(net);
    ASSERT_EQ(fused.size(), net.layers.size());
    for (size_t i = 0; i < fused.size(); ++i) {
        EXPECT_EQ(fused[i].name, net.layers[i].name);
        // Pool layers are pure data movement.
        EXPECT_EQ(fused[i].schedulable,
                  net.layers[i].kind != LayerSpec::Kind::MaxPool)
            << fused[i].name;
    }
}

TEST(Fusion, FusedOpShapesChainCorrectly)
{
    Network net = yoloV1();
    auto fused = partitionAndFuse(net);
    auto shapes = dagLayerShapes(net);
    for (size_t i = 0; i < fused.size(); ++i)
        EXPECT_EQ(fused[i].output.shape(), shapes[i]) << fused[i].name;
}

TEST(E2e, SchedulesOverFeatOnGpu)
{
    Network net = overFeat();
    E2eOptions options;
    options.explore.trials = 12;
    options.explore.warmupPoints = 4;
    NetworkReport report =
        scheduleNetwork(net, Target::forGpu(v100()), options);
    EXPECT_EQ(report.layers.size(), net.layers.size());
    EXPECT_GT(report.totalSeconds, 0.0);
    // Every conv/dense layer is tuned, pools are not.
    int tuned = 0;
    for (const auto &l : report.layers)
        tuned += l.tuned;
    EXPECT_EQ(tuned, 8);
}

TEST(E2e, FusionSavesTime)
{
    Network net = overFeat();
    E2eOptions fused_options;
    fused_options.explore.trials = 8;
    fused_options.explore.warmupPoints = 4;
    fused_options.fuse = FuseMode::Epilogue;
    E2eOptions unfused_options = fused_options;
    unfused_options.fuse = FuseMode::None;
    Target target = Target::forGpu(v100());
    NetworkReport fused = scheduleNetwork(net, target, fused_options);
    NetworkReport unfused = scheduleNetwork(net, target, unfused_options);
    EXPECT_LT(fused.totalSeconds, unfused.totalSeconds);
    EXPECT_LT(fused.modeledTrafficBytes, unfused.modeledTrafficBytes);
}

/**
 * Every mode runs through graph::tuneDag, and a tuned group's GFLOPS is
 * exactly what a direct tune() of its lowered anchor finds; fusion only
 * changes how a group's seconds are charged. OverFeat runs every mode
 * on both devices. YOLO-v1 runs with a tuning cache attached: its
 * conv22 and conv23/conv24 share output and reduce extents but differ
 * in input shape and stride, and each must report its own direct
 * tune(), not the schedule cached for another.
 */
TEST(E2e, EveryModeReportsDirectTunesOfItsAnchors)
{
    struct Case
    {
        Network net;
        Target target;
        std::vector<FuseMode> modes;
        bool cached;
    };
    const std::vector<FuseMode> every = {FuseMode::None, FuseMode::Epilogue,
                                         FuseMode::Graph};
    for (const Case &c :
         {Case{overFeat(), Target::forGpu(v100()), every, false},
          Case{overFeat(), Target::forCpu(xeonE5()), every, false},
          Case{yoloV1(), Target::forGpu(v100()), {FuseMode::Epilogue},
               true}}) {
        const graph::ComputeDag dag = graph::dagFromNetwork(c.net);
        E2eOptions options;
        options.explore.trials = 8;
        options.explore.warmupPoints = 4;
        TuningCache cache;
        if (c.cached)
            options.cache = &cache;
        TuneOptions solo;
        solo.method = options.method;
        solo.explore = options.explore;
        std::map<std::string, double> direct;
        for (size_t id = 0; id < dag.nodes.size(); ++id) {
            if (!dag.nodes[id].isHeavy())
                continue;
            const Tensor anchor =
                graph::lowerAnchor(dag, static_cast<int>(id)).output;
            direct[dag.nodes[id].name] =
                tune(anchor, c.target, solo).gflops;
        }
        for (FuseMode mode : c.modes) {
            options.fuse = mode;
            NetworkReport report = scheduleNetwork(c.net, c.target, options);
            const std::string where = c.net.name + " " +
                                      fuseModeName(mode) + " " +
                                      c.target.deviceName() +
                                      (c.cached ? " cached" : "");
            int tuned = 0;
            for (const LayerReport &layer : report.layers) {
                if (!layer.tuned)
                    continue;
                ++tuned;
                ASSERT_TRUE(direct.count(layer.name)) << layer.name;
                EXPECT_EQ(layer.gflops, direct.at(layer.name))
                    << layer.name << " " << where;
            }
            EXPECT_EQ(tuned, static_cast<int>(direct.size())) << where;
            if (mode == FuseMode::None) {
                EXPECT_EQ(static_cast<int>(report.layers.size()),
                          dag.numComputeNodes());
            }
        }
    }
}

TEST(E2e, SchedulesOnCpuAndFpgaTargets)
{
    Network net = overFeat();
    E2eOptions options;
    options.explore.trials = 8;
    options.explore.warmupPoints = 4;
    for (const Target &t :
         {Target::forCpu(xeonE5()), Target::forFpga(vu9p())}) {
        NetworkReport report = scheduleNetwork(net, t, options);
        EXPECT_EQ(report.layers.size(), net.layers.size());
        EXPECT_GT(report.totalSeconds, 0.0) << t.deviceName();
        EXPECT_EQ(report.device, t.deviceName());
    }
}

TEST(E2e, TuningCacheDeduplicatesRepeatedLayers)
{
    // YOLO-v1 repeats conv shapes (four identical 1x1/3x3 pairs in block
    // 4); with a shared cache those layers are served without exploring.
    Network net = yoloV1();
    const Target target = Target::forGpu(v100());
    E2eOptions options;
    options.explore.trials = 6;
    options.explore.warmupPoints = 4;
    TuningCache cache;
    options.cache = &cache;
    NetworkReport cached = scheduleNetwork(net, target, options);

    // Oracle: the first layer of each distinct structural key explores
    // as a solo tune() would, and every later layer with that key is
    // served without exploring.
    TuneOptions solo;
    solo.method = options.method;
    solo.explore = options.explore;
    std::set<uint64_t> keys;
    size_t schedulable = 0;
    double explored = 0.0;
    for (const FusedOp &op : partitionAndFuse(net)) {
        if (!op.schedulable)
            continue;
        ++schedulable;
        MiniGraph graph(op.output);
        if (keys.insert(workloadKey(anchorOp(graph), target.deviceName()))
                .second)
            explored += tune(op.output, target, solo).simExploreSeconds;
    }
    EXPECT_LT(keys.size(), schedulable);
    EXPECT_EQ(cache.size(), keys.size());
    EXPECT_EQ(cached.simExploreSeconds, explored);
}

TEST(E2e, SecondPassWithWarmCacheExploresNothing)
{
    Network net = overFeat();
    TuningCache cache;
    E2eOptions options;
    options.explore.trials = 6;
    options.explore.warmupPoints = 4;
    options.cache = &cache;
    Target target = Target::forGpu(v100());
    scheduleNetwork(net, target, options);
    NetworkReport second = scheduleNetwork(net, target, options);
    EXPECT_DOUBLE_EQ(second.simExploreSeconds, 0.0);
}

} // namespace
} // namespace ft
