/**
 * @file
 * Integration tests: whole-graph scheduling (Algorithm 1), the NCHWc CPU
 * layout, and cross-module pipelines that exercise the public API the way
 * the examples and benches do.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "core/flextensor.h"
#include "dnn/models.h"
#include "ir/inline.h"
#include "support/rng.h"

namespace ft {
namespace {

TEST(TuneGraph, SchedulesEveryReductionNode)
{
    // relu(gemm(A, B)) @ C : two reduction nodes after inlining (the two
    // gemms), with the elementwise relu folded away.
    Tensor a = placeholder("A", {32, 24});
    Tensor b = placeholder("B", {24, 16});
    Tensor c = placeholder("C", {16, 8});
    Tensor first = ops::relu(ops::gemm(a, b));
    Tensor second = ops::gemm(first, c);

    TuneOptions options;
    options.explore.trials = 15;
    GraphTuneReport report =
        tuneGraph(second, Target::forGpu(v100()), options);
    ASSERT_EQ(report.nodes.size(), 2u);
    EXPECT_EQ(report.nodes[0].first, "gemm");
    EXPECT_EQ(report.nodes[1].first, "gemm");
    EXPECT_GT(report.totalKernelSeconds, 0.0);
    EXPECT_GT(report.simExploreSeconds, 0.0);
    for (const auto &[name, node] : report.nodes)
        EXPECT_GT(node.gflops, kInvalidGflops) << name;
}

/**
 * Every node of a checkpointed tuneGraph call snapshots to its own file
 * (searchCheckpointPath), so a second call resumes each node's search
 * and reproduces its result.
 */
TEST(TuneGraph, CheckpointedSecondCallResumesEveryNode)
{
    Tensor a = placeholder("A", {32, 24});
    Tensor b = placeholder("B", {24, 16});
    Tensor c = placeholder("C", {16, 8});
    Tensor out = ops::gemm(ops::relu(ops::gemm(a, b)), c);
    const Target target = Target::forGpu(v100());
    const std::string dir = ::testing::TempDir() + "ft_graph_ckpt";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    TuneOptions options;
    options.explore.trials = 6;
    options.explore.checkpointPath = dir + "/run.ckpt";
    options.explore.checkpointEveryTrials = 2;
    const GraphTuneReport first = tuneGraph(out, target, options);
    const GraphTuneReport again = tuneGraph(out, target, options);
    ASSERT_EQ(first.nodes.size(), 2u);
    ASSERT_EQ(again.nodes.size(), first.nodes.size());
    for (size_t n = 0; n < first.nodes.size(); ++n) {
        const TuneReport &want = first.nodes[n].second;
        const TuneReport &got = again.nodes[n].second;
        EXPECT_FALSE(want.resumed) << n;
        EXPECT_TRUE(got.resumed) << n;
        EXPECT_EQ(serializeConfig(got.config), serializeConfig(want.config))
            << n;
        EXPECT_EQ(got.gflops, want.gflops) << n;
    }
    size_t files = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator(dir))
        ++files;
    EXPECT_EQ(files, first.nodes.size());
    std::filesystem::remove_all(dir);
}

TEST(TuneGraph, ConvGraphCollapsesToSingleNode)
{
    Tensor input = placeholder("I", {1, 8, 10, 10});
    Tensor weight = placeholder("W", {8, 8, 3, 3});
    ops::ConvParams p;
    p.padding = 1;
    Tensor out = ops::relu(ops::conv2d(input, weight, p));

    TuneOptions options;
    options.explore.trials = 10;
    GraphTuneReport report =
        tuneGraph(out, Target::forCpu(xeonE5()), options);
    // pad and relu both inline; only the convolution is scheduled. The
    // root relu becomes the schedulable node wrapping the conv? No: relu
    // is the root, so it is kept and the conv stays a reduction node.
    ASSERT_EQ(report.nodes.size(), 2u);
    EXPECT_EQ(report.nodes[0].first, "conv2d");
}

TEST(TuneGraph, FailedNodeIsChargedItsExpertSchedule)
{
    // Two random trials per node find no valid schedule for any stage of
    // this Winograd graph on V100. Each failed node costs its expert
    // schedule, so the graph is never free.
    const auto &layer = ops::yoloLayers()[12];
    Tensor input = placeholder("I", {1, layer.inChannels, layer.imageSize,
                                     layer.imageSize});
    Tensor weight =
        placeholder("W", {layer.outChannels, layer.inChannels, 3, 3});
    Tensor wino = ops::conv2dWinograd(input, weight, 1);
    const Target target = Target::forGpu(v100());

    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 2;
    options.explore.seed = 3;
    GraphTuneReport report = tuneGraph(wino, target, options);
    ASSERT_EQ(report.nodes.size(), 4u);

    int failed = 0;
    double expected = 0.0;
    for (const Operation &op : postOrderTraverse(inlineGraph(wino))) {
        if (op->isPlaceholder() || op->isConstant())
            continue;
        const TuneReport &node = report.nodes[failed].second;
        ASSERT_FALSE(node.valid) << op->name();
        const std::optional<double> expert = expertKernelSeconds(op, target);
        ASSERT_TRUE(expert.has_value()) << op->name();
        EXPECT_GT(*expert, 0.0);
        expected += *expert;
        ++failed;
    }
    EXPECT_EQ(report.fallbackNodes, failed);
    EXPECT_GT(report.totalKernelSeconds, 0.0);
    EXPECT_EQ(report.totalKernelSeconds, expected);
}

TEST(Nchwc, ShapeAndGraph)
{
    // 32 channels blocked by 8; 64 output channels blocked by 8.
    Tensor input = placeholder("I", {1, 4, 14, 14, 8});
    Tensor weight = placeholder("W", {8, 4, 3, 3, 8, 8});
    ops::ConvParams p;
    p.padding = 1;
    Tensor out = ops::conv2dNchwc(input, weight, p);
    EXPECT_EQ(out.shape(), (std::vector<int64_t>{1, 8, 14, 14, 8}));
    const auto *op = static_cast<const ComputeOp *>(out.op().get());
    EXPECT_EQ(op->reduceAxis().size(), 4u); // rco, rci, rx, ry
}

TEST(Nchwc, MatchesNchwNumerically)
{
    // Same convolution in both layouts must produce the same numbers
    // (after layout transformation of inputs and outputs).
    const int64_t C = 8, K = 8, HW = 6, cb = 4, kb = 4;
    Rng rng(5);

    // NCHW reference.
    Tensor input = placeholder("I", {1, C, HW, HW});
    Tensor weight = placeholder("W", {K, C, 3, 3});
    ops::ConvParams p;
    p.padding = 1;
    Tensor ref = ops::conv2d(input, weight, p);
    MiniGraph ref_graph(ref);
    BufferMap ref_buffers = makeRandomInputs(ref_graph, rng);
    runGraphReference(ref_graph, ref_buffers);
    const Buffer &I = ref_buffers.at(input.op().get());
    const Buffer &W = ref_buffers.at(weight.op().get());
    const Buffer &O = ref_buffers.at(ref.op().get());

    // Blocked layout with repacked data.
    Tensor input_b = placeholder("Ib", {1, C / cb, HW, HW, cb});
    Tensor weight_b = placeholder("Wb", {K / kb, C / cb, 3, 3, cb, kb});
    Tensor out_b = ops::conv2dNchwc(input_b, weight_b, p);
    MiniGraph blocked_graph(out_b);
    BufferMap blocked;
    Buffer ib(input_b.op());
    for (int64_t c = 0; c < C; ++c)
        for (int64_t y = 0; y < HW; ++y)
            for (int64_t x = 0; x < HW; ++x)
                ib.at({0, c / cb, y, x, c % cb}) = I.at({0, c, y, x});
    Buffer wb(weight_b.op());
    for (int64_t k = 0; k < K; ++k)
        for (int64_t c = 0; c < C; ++c)
            for (int64_t r = 0; r < 3; ++r)
                for (int64_t s = 0; s < 3; ++s)
                    wb.at({k / kb, c / cb, r, s, c % cb, k % kb}) =
                        W.at({k, c, r, s});
    blocked.emplace(input_b.op().get(), std::move(ib));
    blocked.emplace(weight_b.op().get(), std::move(wb));
    runGraphReference(blocked_graph, blocked);
    const Buffer &Ob = blocked.at(out_b.op().get());

    for (int64_t k = 0; k < K; ++k)
        for (int64_t y = 0; y < HW; ++y)
            for (int64_t x = 0; x < HW; ++x)
                ASSERT_NEAR(Ob.at({0, k / kb, y, x, k % kb}),
                            O.at({0, k, y, x}), 1e-3)
                    << "k=" << k << " y=" << y << " x=" << x;
}

TEST(Nchwc, SchedulesPreserveSemantics)
{
    Tensor input = placeholder("I", {1, 2, 6, 6, 4});
    Tensor weight = placeholder("W", {2, 2, 3, 3, 4, 4});
    ops::ConvParams p;
    p.padding = 1;
    Tensor out = ops::conv2dNchwc(input, weight, p);

    MiniGraph g(out);
    Operation anchor = anchorOp(g);
    Rng rng(9);
    BufferMap base = makeRandomInputs(g, rng);
    runGraphReference(g, base);
    Buffer gold = base.at(anchor.get());
    base.erase(anchor.get());

    Target target = Target::forCpu(xeonE5());
    ScheduleSpace space = buildSpace(anchor, target);
    for (int trial = 0; trial < 5; ++trial) {
        Scheduled s =
            generate(anchor, space.decode(space.randomPoint(rng)), target);
        BufferMap run = base;
        runScheduled(s.nest, run, 2);
        const Buffer &got = run.at(anchor.get());
        for (int64_t i = 0; i < gold.numel(); ++i)
            ASSERT_NEAR(got[i], gold[i], 1e-3);
    }
}

TEST(Nchwc, BlockedLayoutTunesFasterOnCpu)
{
    // The paper's §6.3: FlexTensor uses NCHWc on CPU to exploit
    // vectorization. The blocked layout's innermost axis is a perfect
    // SIMD lane dimension, so the tuned result should beat plain NCHW.
    const int64_t C = 64, K = 64, HW = 28;
    Tensor input = placeholder("I", {1, C, HW, HW});
    Tensor weight = placeholder("W", {K, C, 3, 3});
    ops::ConvParams p;
    p.padding = 1;
    Tensor nchw = ops::conv2d(input, weight, p);

    Tensor input_b = placeholder("Ib", {1, C / 8, HW, HW, 8});
    Tensor weight_b = placeholder("Wb", {K / 8, C / 8, 3, 3, 8, 8});
    Tensor nchwc = ops::conv2dNchwc(input_b, weight_b, p);

    TuneOptions options;
    options.explore.trials = 60;
    Target target = Target::forCpu(xeonE5());
    TuneReport plain = tune(nchw, target, options);
    TuneReport blocked = tune(nchwc, target, options);
    EXPECT_GT(blocked.gflops, plain.gflops * 0.9)
        << "blocked layout should be at least competitive";
}

TEST(Integration, VersionIsSet)
{
    EXPECT_STREQ(version(), "1.0.0");
}

TEST(Integration, YoloNetworkContainsAllTable4Layers)
{
    // Every distinctive layer of Table 4 appears in the YOLO-v1 graph.
    Network net = yoloV1();
    std::vector<int64_t> cur = net.inputShape;
    std::set<std::string> found;
    for (const auto &l : net.layers) {
        if (l.kind == LayerSpec::Kind::Conv) {
            for (const auto &t4 : ops::yoloLayers()) {
                if (t4.inChannels == cur[1] &&
                    t4.outChannels == l.outChannels &&
                    t4.imageSize == cur[2] && t4.kernel == l.kernel &&
                    t4.stride == l.stride) {
                    found.insert(t4.name);
                }
            }
        }
        // Propagate the shape.
        if (l.kind == LayerSpec::Kind::Conv) {
            int64_t oh = (cur[2] + 2 * l.padding - l.kernel) / l.stride + 1;
            cur = {cur[0], l.outChannels, oh, oh};
        } else if (l.kind == LayerSpec::Kind::MaxPool) {
            int64_t oh = (cur[2] - l.kernel) / l.stride + 1;
            cur = {cur[0], cur[1], oh, oh};
        } else {
            break;
        }
    }
    EXPECT_EQ(found.size(), ops::yoloLayers().size())
        << "all 15 distinctive layers should appear";
}

} // namespace
} // namespace ft
