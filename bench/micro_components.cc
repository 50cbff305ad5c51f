/**
 * @file
 * google-benchmark micro-benchmarks for the library's hot components:
 * expression interpretation, schedule lowering, model evaluation, space
 * construction, neighbor moves, Q-network inference/training, GBT
 * fitting, and the fusion partitioner. These bound the overhead side of
 * the exploration loop (the paper's search must stay cheap relative to
 * on-device measurement).
 */
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "analysis/verify/verify.h"
#include "core/flextensor.h"
#include "dnn/models.h"
#include "graph/partition.h"
#include "ir/inline.h"
#include "ml/gbt.h"
#include "nn/mlp.h"
#include "support/rng.h"

using namespace ft;

namespace {

Tensor
benchConv()
{
    Tensor input = placeholder("I", {1, 32, 28, 28});
    Tensor weight = placeholder("W", {64, 32, 3, 3});
    ops::ConvParams p;
    p.padding = 1;
    return ops::conv2d(input, weight, p);
}

void
BM_ReferenceExecuteConv(benchmark::State &state)
{
    Tensor input = placeholder("I", {1, 4, 12, 12});
    Tensor weight = placeholder("W", {8, 4, 3, 3});
    ops::ConvParams p;
    p.padding = 1;
    Tensor out = ops::conv2d(input, weight, p);
    MiniGraph g(out);
    Rng rng(1);
    BufferMap inputs = makeRandomInputs(g, rng);
    for (auto _ : state) {
        BufferMap buffers = inputs;
        runGraphReference(g, buffers);
        benchmark::DoNotOptimize(buffers);
    }
}
BENCHMARK(BM_ReferenceExecuteConv);

void
BM_ScheduledInterpretConv(benchmark::State &state)
{
    Tensor input = placeholder("I", {1, 4, 12, 12});
    Tensor weight = placeholder("W", {8, 4, 3, 3});
    ops::ConvParams p;
    p.padding = 1;
    Tensor out = ops::conv2d(input, weight, p);
    MiniGraph g(out);
    Operation anchor = anchorOp(g);
    Rng rng(2);
    BufferMap inputs = makeRandomInputs(g, rng);
    runGraphReference(g, inputs);
    inputs.erase(anchor.get());
    Target target = Target::forGpu(v100());
    Scheduled s = generate(anchor, expertConfig(anchor, target), target);
    for (auto _ : state) {
        BufferMap buffers = inputs;
        runScheduled(s.nest, buffers);
        benchmark::DoNotOptimize(buffers);
    }
}
BENCHMARK(BM_ScheduledInterpretConv);

void
BM_LowerAndModelGpu(benchmark::State &state)
{
    Tensor out = benchConv();
    MiniGraph g(out);
    Operation anchor = anchorOp(g);
    Target target = Target::forGpu(v100());
    OpConfig cfg = expertConfig(anchor, target);
    for (auto _ : state) {
        Scheduled s = generate(anchor, cfg, target);
        PerfResult perf = modelPerf(s.features, target);
        benchmark::DoNotOptimize(perf);
    }
}
BENCHMARK(BM_LowerAndModelGpu);

void
BM_LowerAndModelCpu(benchmark::State &state)
{
    Tensor out = benchConv();
    MiniGraph g(out);
    Operation anchor = anchorOp(g);
    Target target = Target::forCpu(xeonE5());
    OpConfig cfg = expertConfig(anchor, target);
    for (auto _ : state) {
        Scheduled s = generate(anchor, cfg, target);
        PerfResult perf = modelPerf(s.features, target);
        benchmark::DoNotOptimize(perf);
    }
}
BENCHMARK(BM_LowerAndModelCpu);

/**
 * One trial's verification (race, bounds and resource passes) of the
 * expert schedule of benchConv with its zero padding inlined, so the
 * bounds prover runs its guard refinements. Arg 0 picks the device: 0
 * the V100 model, 1 the Xeon.
 */
void
BM_VerifySchedule(benchmark::State &state)
{
    MiniGraph g(inlineGraph(benchConv()));
    Operation anchor = anchorOp(g);
    Target target = state.range(0) == 0 ? Target::forGpu(v100())
                                        : Target::forCpu(xeonE5());
    OpConfig cfg = expertConfig(anchor, target);
    Scheduled s = generate(anchor, cfg, target);
    verify::DiagReport report;
    for (auto _ : state) {
        report.clear();
        verify::verifyScheduleInto(s, target, &cfg, report);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_VerifySchedule)->Arg(0)->Arg(1);

/**
 * Space construction. Arg 0 picks the operator: 0 is benchConv, 1 the
 * YOLO-v1 C1 layer (3 -> 64 channels, 7x7 stride 2, 448x448 input; its
 * 224x224 output has the largest spatial extents of Section 6.6). Arg 1
 * picks the device: 0 the V100 model, 1 the Xeon.
 */
void
BM_BuildSpace(benchmark::State &state)
{
    Tensor out = state.range(0) == 0 ? benchConv()
                                     : ops::yoloLayers().front().build();
    MiniGraph g(out);
    Operation anchor = anchorOp(g);
    Target target = state.range(1) == 0 ? Target::forGpu(v100())
                                        : Target::forCpu(xeonE5());
    for (auto _ : state) {
        ScheduleSpace space = buildSpace(anchor, target);
        benchmark::DoNotOptimize(space.size());
    }
}
BENCHMARK(BM_BuildSpace)
    ->ArgNames({"yolo_c1", "xeon"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

void
BM_SpaceMove(benchmark::State &state)
{
    Tensor out = benchConv();
    MiniGraph g(out);
    Operation anchor = anchorOp(g);
    ScheduleSpace space = buildSpace(anchor, Target::forGpu(v100()));
    Rng rng(3);
    Point p = space.randomPoint(rng);
    int dir = 0;
    for (auto _ : state) {
        auto next = space.move(p, dir);
        if (next)
            p = *next;
        dir = (dir + 1) % space.numDirections();
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_SpaceMove);

void
BM_EvaluatorThroughput(benchmark::State &state)
{
    Tensor out = benchConv();
    MiniGraph g(out);
    Operation anchor = anchorOp(g);
    Target target = Target::forGpu(v100());
    ScheduleSpace space = buildSpace(anchor, target);
    Evaluator eval(anchor, space, target);
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(eval.evaluate(space.randomPoint(rng)));
    }
}
BENCHMARK(BM_EvaluatorThroughput);

/** The largest Q-network the explorers build (conv2d on the GPU
 *  model): 40 features, three hidden layers of 64, 70 directions. */
const std::vector<int> kQDims = {40, 64, 64, 64, 70};

/** `m` row-major feature rows in [-1, 1). */
std::vector<float>
qFeatures(int m, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> x(static_cast<size_t>(m) * kQDims.front());
    for (float &v : x)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return x;
}

/** Network construction plus the target-network copy, as QPolicy's
 *  initNets() does once per run. */
void
BM_QNetworkInit(benchmark::State &state)
{
    Rng rng(5);
    for (auto _ : state) {
        std::optional<Mlp> x, y;
        x.emplace(kQDims, rng);
        y = x;
        benchmark::DoNotOptimize(y);
    }
}
BENCHMARK(BM_QNetworkInit);

/** Batched inference over `m` rows: 4 is one propose step (one row
 *  per starting point), 32 the target-network pass of a training round. */
void
BM_QNetworkForward(benchmark::State &state)
{
    Rng rng(5);
    Mlp net(kQDims, rng);
    const int m = static_cast<int>(state.range(0));
    std::vector<float> x = qFeatures(m, 6);
    MlpScratch scratch;
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.forwardBatch(x.data(), m, scratch));
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_QNetworkForward)->Arg(4)->Arg(32);

/** One training round on a full 32-sample replay batch: batched
 *  gradient accumulation plus the AdaDelta step. */
void
BM_QNetworkTrainStep(benchmark::State &state)
{
    Rng rng(6);
    Mlp net(kQDims, rng);
    const int m = 32;
    std::vector<float> x = qFeatures(m, 7);
    std::vector<int> actions(m);
    std::vector<float> targets(m);
    for (int s = 0; s < m; ++s) {
        actions[s] = static_cast<int>(rng.index(kQDims.back()));
        targets[s] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    MlpScratch scratch;
    for (auto _ : state) {
        net.zeroGrad();
        benchmark::DoNotOptimize(net.accumulateGradBatch(
            x.data(), m, actions.data(), targets.data(), scratch));
        net.step();
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_QNetworkTrainStep);

void
BM_GbtFit(benchmark::State &state)
{
    Rng data(7);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 128; ++i) {
        std::vector<double> f(24);
        for (auto &v : f)
            v = data.uniform();
        y.push_back(f[0] * 2 - f[1]);
        x.push_back(std::move(f));
    }
    Rng rng(8);
    GbtOptions opt;
    opt.trees = 20;
    for (auto _ : state) {
        GbtModel model;
        model.fit(x, y, opt, rng);
        benchmark::DoNotOptimize(model.predict(x[0]));
    }
}
BENCHMARK(BM_GbtFit);

void
BM_StaticAnalysis(benchmark::State &state)
{
    Tensor out = benchConv();
    MiniGraph g(out);
    for (auto _ : state) {
        GraphAnalysis a = analyzeGraph(g);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_StaticAnalysis);

/**
 * One graph::partitionDag call at default options on a Section 6.6 DAG,
 * as every graph::tuneDag call of the network makes. Arg 0 picks the
 * network (0 YOLO-v1, 1 OverFeat, batch 1), arg 1 the device (0 the
 * V100 model, 1 the Xeon).
 */
void
BM_PartitionDag(benchmark::State &state)
{
    const graph::ComputeDag dag = graph::dagFromNetwork(
        state.range(0) == 0 ? yoloV1(1) : overFeat(1));
    const Target target = state.range(1) == 0 ? Target::forGpu(v100())
                                              : Target::forCpu(xeonE5());
    for (auto _ : state) {
        graph::Partition p = graph::partitionDag(dag, target);
        benchmark::DoNotOptimize(p.totalSeconds);
    }
}
BENCHMARK(BM_PartitionDag)
    ->ArgNames({"overfeat", "xeon"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
