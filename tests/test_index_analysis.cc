/**
 * @file
 * Differential oracle of the per-operator IndexAnalysis.
 *
 * Lowering and the verifier's race and bounds passes read an analysis
 * built once per operator instead of walking its expression trees on
 * every trial. These tests hold that path to the tree-walking reference
 * (tests/oracle/tree_walk.cc, the code as it was before the analysis):
 * over sampled points of every Section 6.6 anchor on V100 and Xeon, an
 * FPGA conv and guard-heavy padded layers, the loop nest, every
 * NestFeatures field and every Diag (code, severity, loop, access,
 * message, in order) must be identical, on the generated nests and on
 * nests mutated into illegal ones. They also pin that a warm lowering
 * and verification of a clean point allocate nothing, and that
 * concurrent first use of one operator's analysis is safe.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/index_analysis.h"
#include "analysis/verify/verify.h"
#include "dnn/models.h"
#include "explore/evaluator.h"
#include "explore/explorer.h"
#include "graph/lower.h"
#include "graph/partition.h"
#include "ir/graph.h"
#include "ir/inline.h"
#include "oracle/tree_walk.h"
#include "ops/ops.h"
#include "schedule/generator.h"
#include "sim/library_model.h"
#include "space/builder.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace {

/** Heap allocations made through operator new, by any thread. */
std::atomic<long> g_allocations{0};

} // namespace

// Not inlined into callers, so the compiler never pairs a new-expression
// with the free() below.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace ft {
namespace {

using verify::Diag;
using verify::DiagReport;

int
samplesPerJob()
{
    const char *env = std::getenv("FLEXTENSOR_FUZZ_SAMPLES");
    return env ? std::max(1, std::atoi(env)) : 60;
}

void
expectSameNest(const LoopNest &got, const LoopNest &want,
               const std::string &what)
{
    EXPECT_EQ(got.op.get(), want.op.get()) << what;
    ASSERT_EQ(got.loops.size(), want.loops.size()) << what;
    for (size_t i = 0; i < got.loops.size(); ++i) {
        const SubLoop &g = got.loops[i], &w = want.loops[i];
        const std::string at = what + " loop " + std::to_string(i);
        EXPECT_EQ(g.name, w.name) << at;
        EXPECT_EQ(g.extent, w.extent) << at;
        EXPECT_EQ(g.anno, w.anno) << at;
        EXPECT_EQ(g.origin, w.origin) << at;
        EXPECT_EQ(g.stride, w.stride) << at;
        EXPECT_EQ(g.level, w.level) << at;
    }
    EXPECT_EQ(got.guardedAxes, want.guardedAxes) << what;
}

void
expectSameFeatures(const NestFeatures &g, const NestFeatures &w,
                   const std::string &what)
{
    EXPECT_EQ(g.valid, w.valid) << what;
    EXPECT_EQ(g.invalidReason, w.invalidReason) << what;
    EXPECT_EQ(g.totalFlops, w.totalFlops) << what;
    EXPECT_EQ(g.outputElems, w.outputElems) << what;
    EXPECT_EQ(g.unrollSteps, w.unrollSteps) << what;
    EXPECT_EQ(g.grid, w.grid) << what;
    EXPECT_EQ(g.threadsPerBlock, w.threadsPerBlock) << what;
    EXPECT_EQ(g.vthreads, w.vthreads) << what;
    EXPECT_EQ(g.workPerThread, w.workPerThread) << what;
    EXPECT_EQ(g.regsPerThread, w.regsPerThread) << what;
    EXPECT_EQ(g.sharedBytesPerBlock, w.sharedBytesPerBlock) << what;
    EXPECT_EQ(g.dramBytes, w.dramBytes) << what;
    EXPECT_EQ(g.coalesceFactor, w.coalesceFactor) << what;
    EXPECT_EQ(g.bankConflictPenalty, w.bankConflictPenalty) << what;
    EXPECT_EQ(g.parallelExtent, w.parallelExtent) << what;
    EXPECT_EQ(g.vecLen, w.vecLen) << what;
    EXPECT_EQ(g.l1TileBytes, w.l1TileBytes) << what;
    EXPECT_EQ(g.l2TileBytes, w.l2TileBytes) << what;
    EXPECT_EQ(g.cpuDramBytes, w.cpuDramBytes) << what;
    EXPECT_EQ(g.pe, w.pe) << what;
    EXPECT_EQ(g.bufferBytes, w.bufferBytes) << what;
    EXPECT_EQ(g.partition, w.partition) << what;
    EXPECT_EQ(g.readBytesPerRound, w.readBytesPerRound) << what;
    EXPECT_EQ(g.writeBytesPerRound, w.writeBytesPerRound) << what;
    EXPECT_EQ(g.flopsPerRound, w.flopsPerRound) << what;
    EXPECT_EQ(g.rounds, w.rounds) << what;
}

void
expectSameDiags(const DiagReport &got, const DiagReport &want,
                const std::string &what)
{
    ASSERT_EQ(got.size(), want.size())
        << what << "\n got: " << got.toJson()
        << "\nwant: " << want.toJson();
    for (size_t i = 0; i < got.size(); ++i) {
        const Diag &g = got.diags()[i], &w = want.diags()[i];
        EXPECT_EQ(g.code, w.code) << what;
        EXPECT_EQ(g.severity, w.severity) << what;
        EXPECT_EQ(g.loop, w.loop) << what;
        EXPECT_EQ(g.access, w.access) << what;
        EXPECT_EQ(g.message, w.message) << what;
    }
}

/** Verify a nest on both paths and demand identical reports. */
void
expectSameVerdict(const Scheduled &s, const Target &target,
                  const OpConfig *config, const std::string &what)
{
    DiagReport got = verify::verifySchedule(s, target, config);
    DiagReport want;
    oracle::check(s, target, config, want);
    expectSameDiags(got, want, what);
}

/** What the differential run saw, so coverage can be asserted. */
struct Coverage
{
    int points = 0;
    int rejected = 0;   ///< points with an Error diagnostic
    int structural = 0; ///< mutated nests with a race/OOB/COV error
};

/**
 * Break a generated nest the ways the verifier must catch: the
 * mutations of tests/test_verify.cc (widened split, aliasing stride,
 * dropped sub-loop, reduce loop made parallel) plus negative strides
 * and dropped or added guard declarations.
 */
void
mutate(LoopNest &nest, Rng &rng)
{
    if (nest.loops.empty())
        return;
    SubLoop &l = nest.loops[rng.below(nest.loops.size())];
    switch (rng.below(7)) {
      case 0:
        l.extent += rng.range(1, 3);
        break;
      case 1:
        l.stride = rng.range(0, 2);
        break;
      case 2:
        nest.loops.erase(nest.loops.begin() +
                         (&l - nest.loops.data()));
        break;
      case 3:
        l.anno = LoopAnno::Parallel;
        break;
      case 4:
        l.stride = -l.stride;
        break;
      case 5:
        nest.guardedAxes.clear();
        break;
      default:
        nest.guardedAxes.push_back(l.origin);
        l.extent += 1;
        break;
    }
}

/**
 * Lower and verify `samples` points of the anchor's space (plus one
 * imperfect tile and one mutated nest per point) on both paths.
 */
void
differential(const Operation &anchor, const Target &target, int samples,
             uint64_t seed, const std::string &name, Coverage &cov)
{
    ScheduleSpace space = buildSpace(anchor, target);
    Rng rng(seed);
    Scheduled warm; // reused across points, as the evaluator does
    for (int i = 0; i < samples; ++i) {
        OpConfig cfg = space.decode(space.randomPoint(rng));
        if (i % 4 == 3 && !cfg.spatialSplits.empty())
            cfg.spatialSplits[0][0] += 1; // an imperfect (guarded) tile
        const std::string what = name + " on " + target.deviceName() +
                                 " point " + std::to_string(i);
        Scheduled want = oracle::lower(anchor, cfg, target);
        generateInto(anchor, cfg, target, warm);
        Scheduled got = generate(anchor, cfg, target);
        expectSameNest(got.nest, want.nest, what);
        expectSameFeatures(got.features, want.features, what);
        expectSameNest(warm.nest, want.nest, what + " (reused)");
        expectSameFeatures(warm.features, want.features, what + " (reused)");
        expectSameVerdict(got, target, &cfg, what);
        ++cov.points;
        if (verify::verifySchedule(got, target, &cfg).hasError())
            ++cov.rejected;

        Rng mrng(seed ^ (0x9e37u * (i + 1)));
        mutate(got.nest, mrng);
        expectSameVerdict(got, target, &cfg, what + " mutated");
        DiagReport structural;
        verify::checkStructural(got.nest, structural);
        if (structural.hasError())
            ++cov.structural;
    }
}

/** The distinct anchors of a network's partition on a target. */
std::vector<std::pair<std::string, Operation>>
sec66Anchors(const Network &net, const Target &target)
{
    graph::ComputeDag dag = graph::dagFromNetwork(net);
    graph::Partition partition = graph::partitionDag(dag, target);
    std::vector<std::pair<std::string, Operation>> out;
    std::set<OpKey> seen;
    for (const graph::FusionGroup &group : partition.groups) {
        const int anchor = group.anchor(dag);
        if (anchor < 0)
            continue;
        Operation op = graph::lowerAnchor(dag, anchor).output.op();
        if (seen.insert(op->key()).second)
            out.emplace_back(dag.nodes[anchor].name, op);
    }
    return out;
}

TEST(IndexAnalysisOracle, Sec66AnchorsMatchTheTreeWalkOnV100AndXeon)
{
    const int samples = samplesPerJob();
    for (const Network &net : {yoloV1(1), overFeat(1)}) {
        for (const Target &target :
             {Target::forGpu(v100()), Target::forCpu(xeonE5())}) {
            Coverage cov;
            uint64_t seed = 0x51;
            for (const auto &[name, anchor] : sec66Anchors(net, target))
                differential(anchor, target, samples, seed++, name, cov);
            const std::string where =
                net.name + " on " + target.deviceName();
            EXPECT_GT(cov.points, 0) << where;
            EXPECT_GT(cov.structural, 0) << where;
            // Random points of a GPU space break its device limits.
            if (target.kind == DeviceKind::Gpu) {
                EXPECT_GT(cov.rejected, 0) << where;
            }
        }
    }
}

/** A zero-padded conv with the pad inlined: select-guarded reads. */
Operation
paddedConv(int64_t channels, int64_t size)
{
    Tensor input = placeholder("I", {1, channels, size, size});
    Tensor weight = placeholder("W", {8, channels, 3, 3});
    ops::ConvParams p;
    p.padding = 1;
    MiniGraph g(inlineGraph(ops::conv2d(input, weight, p)));
    return anchorOp(g);
}

TEST(IndexAnalysisOracle, PaddedConvGuardsMatchOnEveryDevice)
{
    Operation anchor = paddedConv(4, 14);
    const auto &ia =
        static_cast<const ComputeOp *>(anchor.get())->indexAnalysis();
    // The guarded program must carry refinements, or the padding is not
    // being exercised.
    ASSERT_FALSE(ia.guardedProgram().refinements.empty());
    for (const Target &target :
         {Target::forGpu(v100()), Target::forCpu(xeonE5()),
          Target::forFpga(vu9p())}) {
        Coverage cov;
        differential(anchor, target, samplesPerJob(), 0xc0de, "padded conv",
                     cov);
        EXPECT_GT(cov.structural, 0) << target.deviceName();
        // The expert schedule of the padded layer proves clean.
        OpConfig cfg = expertConfig(anchor, target);
        Scheduled s = generate(anchor, cfg, target);
        DiagReport report;
        verify::checkStructural(s.nest, report);
        EXPECT_FALSE(report.hasError()) << report.toJson();
    }
}

TEST(IndexAnalysisOracle, FpgaConvMatches)
{
    Tensor input = placeholder("I", {1, 16, 28, 28});
    Tensor weight = placeholder("W", {32, 16, 3, 3});
    MiniGraph g(ops::conv2d(input, weight, {}));
    Coverage cov;
    differential(anchorOp(g), Target::forFpga(vu9p()), samplesPerJob(),
                 0xf96a, "conv", cov);
    EXPECT_GT(cov.points, 0);
}

/** The hand-built illegal nests of test_verify.cc, diagnostic for diagnostic. */
TEST(IndexAnalysisOracle, HandBuiltIllegalNestsGiveTheReferenceDiagnostics)
{
    const Target cpu = Target::forCpu(xeonE5());
    Tensor a = placeholder("A", {6, 18});
    Tensor b = placeholder("B", {18, 8});
    Operation gemm = ops::gemm(a, b).op();
    const auto *op = static_cast<const ComputeOp *>(gemm.get());
    OpConfig cfg = defaultConfig(gemm, cpu);
    cfg.spatialSplits = {{3, 1, 2}, {2, 2, 2}};
    cfg.reduceSplits = {{3, 6}};
    auto loopOf = [](LoopNest &nest, const IterVarNode *origin, int level) {
        for (SubLoop &l : nest.loops) {
            if (l.origin == origin && l.level == level)
                return &l;
        }
        return static_cast<SubLoop *>(nullptr);
    };
    // A foreign axis: its one sub-loop reaches 4 of its 8 iterations.
    IterVar foreign = makeIterVar("x", 8); // outlives every case below
    std::vector<std::pair<std::string, Scheduled>> cases;
    {
        Scheduled s = generate(gemm, cfg, cpu); // reduce loop parallel
        loopOf(s.nest, op->reduceAxis()[0].get(), 0)->anno =
            LoopAnno::Parallel;
        cases.emplace_back("reduce parallel", s);
    }
    {
        Scheduled s = generate(gemm, cfg, cpu); // aliasing strides
        loopOf(s.nest, op->axis()[0].get(), 0)->stride = 1;
        cases.emplace_back("aliasing strides", s);
    }
    {
        Scheduled s = generate(gemm, cfg, cpu); // widened split
        loopOf(s.nest, op->axis()[0].get(), 2)->extent = 4;
        cases.emplace_back("widened split", s);
    }
    {
        Scheduled s = generate(gemm, cfg, cpu); // dropped sub-loop
        SubLoop *l = loopOf(s.nest, op->axis()[0].get(), 0);
        s.nest.loops.erase(s.nest.loops.begin() + (l - s.nest.loops.data()));
        cases.emplace_back("dropped sub-loop", s);
    }
    {
        Scheduled s = generate(gemm, cfg, cpu); // a foreign sub-loop
        SubLoop l;
        l.name = "x.s0";
        l.extent = 4;
        l.origin = foreign.get();
        s.nest.loops.push_back(l);
        cases.emplace_back("foreign sub-loop", s);
    }
    {
        Tensor x = placeholder("X", {8}); // negative index
        Operation shifted =
            compute("shifted", {8},
                    [&](const std::vector<Expr> &iv) {
                        return x({sub(iv[0], intImm(1))});
                    })
                .op();
        cases.emplace_back(
            "negative index",
            generate(shifted, defaultConfig(shifted, cpu), cpu));
    }
    for (const auto &[what, s] : cases) {
        DiagReport got = verify::verifySchedule(s, cpu, &cfg);
        EXPECT_TRUE(got.hasError()) << what;
        DiagReport want;
        oracle::check(s, cpu, &cfg, want);
        expectSameDiags(got, want, what);
    }
}

/**
 * Lower and verify `cfg` twice into one Scheduled and report the
 * allocations of the second (warm) round.
 */
long
warmAllocations(const Operation &anchor, const OpConfig &cfg,
                const Target &target)
{
    Scheduled s;
    DiagReport report;
    long before = 0;
    for (int round = 0; round < 2; ++round) {
        before = g_allocations.load();
        generateInto(anchor, cfg, target, s);
        report.clear();
        verify::verifyScheduleInto(s, target, &cfg, report);
    }
    EXPECT_TRUE(report.empty()) << report.toJson();
    return g_allocations.load() - before;
}

/** The first sampled point whose lowering verifies with no diagnostic. */
OpConfig
cleanPoint(const Operation &anchor, const Target &target)
{
    ScheduleSpace space = buildSpace(anchor, target);
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        OpConfig cfg = space.decode(space.randomPoint(rng));
        if (verify::verifySchedule(generate(anchor, cfg, target), target,
                                   &cfg)
                .empty())
            return cfg;
    }
    ADD_FAILURE() << "no clean point on " << target.deviceName();
    return defaultConfig(anchor, target);
}

TEST(IndexAnalysisAlloc, WarmLoweringAndVerificationAllocateNothing)
{
    Operation anchor = paddedConv(16, 28);
    for (const Target &target :
         {Target::forGpu(v100()), Target::forCpu(xeonE5())}) {
        OpConfig cfg = cleanPoint(anchor, target);
        EXPECT_EQ(warmAllocations(anchor, cfg, target), 0)
            << target.deviceName();
    }
}

/**
 * The analysis is built on first use. Evaluation-pool workers scoring
 * one fresh operator race to build it; they must agree with a
 * sequential run on a structurally equal operator (and, under TSan,
 * without a data race).
 */
TEST(IndexAnalysisConcurrency, PoolWorkersScoreOneFreshOperator)
{
    const Target target = Target::forGpu(v100());
    Operation seq_op = paddedConv(8, 14);
    ScheduleSpace seq_space = buildSpace(seq_op, target);
    ExploreOptions opts;
    opts.trials = 4;
    opts.startingPoints = 2;
    opts.seed = 0xfeed;
    Evaluator seq(seq_op, seq_space, target);
    ExploreResult rs = explore(Method::PMethod, seq, opts);

    Operation par_op = paddedConv(8, 14); // analysis not yet built
    ScheduleSpace par_space = buildSpace(par_op, target);
    ThreadPool pool(4);
    ExploreOptions par_opts = opts;
    par_opts.evalPool = &pool;
    Evaluator par(par_op, par_space, target);
    ExploreResult rp = explore(Method::PMethod, par, par_opts);
    EXPECT_EQ(rp.bestGflops, rs.bestGflops);
    ASSERT_EQ(par.history().size(), seq.history().size());
    for (size_t i = 0; i < seq.history().size(); ++i)
        EXPECT_EQ(par.history()[i].gflops, seq.history()[i].gflops) << i;

    // Plain threads lowering one fresh operator at once.
    Operation fresh = paddedConv(8, 14);
    OpConfig cfg = expertConfig(fresh, target);
    const NestFeatures want = generate(seq_op, cfg, target).features;
    std::vector<std::thread> threads;
    std::vector<NestFeatures> got(4);
    for (size_t t = 0; t < got.size(); ++t)
        threads.emplace_back(
            [&, t] { got[t] = generate(fresh, cfg, target).features; });
    for (auto &th : threads)
        th.join();
    for (const NestFeatures &f : got)
        expectSameFeatures(f, want, "concurrent first use");
}

} // namespace
} // namespace ft
