/**
 * @file
 * Cross-run determinism of the exploration methods: for a fixed seed,
 * every explorer — with or without fault injection — must reproduce the
 * exact same run, down to the trace timeline. Each run is folded into a
 * 64-bit FNV-1a digest of (best point, best GFLOPS, simulated clock,
 * trials used, trace event count); the digest must match a second run
 * in-process AND the value recorded in this file, so a change that
 * silently perturbs exploration (an extra RNG draw, a reordered commit,
 * an observer that is not pure) fails loudly.
 *
 * GFLOPS and the sim clock are digested as hexfloats: bit-exact, no
 * rounding slop to hide a perturbation.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "dnn/models.h"
#include "explore/tuner.h"
#include "family/tune_family.h"
#include "graph/dag.h"
#include "graph/schedule_dag.h"
#include "ml/costmodel.h"
#include "obs/trace.h"
#include "ops/ops.h"
#include "space/builder.h"
#include "support/fault_injector.h"
#include "support/rng.h"

namespace ft {
namespace {

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

struct DeterminismCase
{
    const char *name;
    Method method;
    bool faults;
    uint64_t expectedDigest; ///< recorded from the run that authored it
    /** Digest of the exploration outcome alone (no trace event count).
     *  These values were recorded BEFORE the hot-path overhaul (integer
     *  point keys, batched Q-network inference, decode reuse) and must
     *  never change without a bit-identity justification: they prove the
     *  optimized paths visit the exact same points in the exact same
     *  order as the original code. The full digest additionally pins the
     *  trace timeline, which legitimately shrank when per-start
     *  `q_forward` points collapsed into one `q_forward_batch` span per
     *  step. */
    uint64_t expectedExploreDigest;
};

struct RunDigests
{
    uint64_t full;    ///< outcome + trace event count
    uint64_t explore; ///< outcome only
};

/** Per-case option changes layered on the shared base run. */
using OptionTweak = void (*)(ExploreOptions &, const ScheduleSpace &);

/** One complete exploration run, folded into digests. */
RunDigests
runDigest(Method method, bool faults, OptionTweak tweak = nullptr)
{
    Tensor a = placeholder("A", {256, 256});
    Tensor b = placeholder("B", {256, 256});
    Tensor out = ops::gemm(a, b);
    Target target = Target::forGpu(v100());
    ScheduleSpace space = buildSpace(out.op(), target);
    Evaluator eval(out.op(), space, target);

    ExploreOptions options;
    options.trials = 16;
    options.warmupPoints = 8;
    options.seed = 0xd5eed;

    FaultProfile profile;
    profile.transient = 0.15;
    profile.timeout = 0.05;
    profile.outlier = 0.10;
    profile.seed = 99;
    FaultInjector injector(profile);
    if (faults)
        options.resilience.injector = &injector;

    TraceRecorder trace;
    options.obs.trace = &trace;
    if (tweak)
        tweak(options, space);

    ExploreResult r = explore(method, eval, options);

    std::ostringstream explore;
    explore << r.bestPoint.key() << '|' << std::hexfloat << r.bestGflops
            << '|' << r.simSeconds << '|' << std::dec << r.trialsUsed;
    std::ostringstream full;
    full << explore.str() << '|' << trace.eventCount();
    return {fnv1a(full.str()), fnv1a(explore.str())};
}

class DeterminismTest : public ::testing::TestWithParam<DeterminismCase>
{};

TEST_P(DeterminismTest, FixedSeedReproducesRecordedDigest)
{
    const DeterminismCase &dc = GetParam();
    const RunDigests first = runDigest(dc.method, dc.faults);
    const RunDigests second = runDigest(dc.method, dc.faults);
    EXPECT_EQ(first.full, second.full)
        << "two same-seed runs diverged in-process";
    EXPECT_EQ(first.explore, dc.expectedExploreDigest)
        << dc.name << ": the exploration OUTCOME diverged from the "
        << "pre-optimization recording — the hot path is no longer "
        << "bit-identical (actual digest " << first.explore << "ULL)";
    EXPECT_EQ(first.full, dc.expectedDigest)
        << dc.name << ": exploration no longer reproduces the recorded "
        << "run (actual digest " << first.full << "ULL)";
}

constexpr DeterminismCase kDeterminismCases[] = {
    {"q", Method::QMethod, false, 12714931047985466100ULL,
     10249001808851198244ULL},
    {"q_faults", Method::QMethod, true, 18141620042741797031ULL,
     1083223271488592432ULL},
    {"p", Method::PMethod, false, 3119958773756146598ULL,
     3818915005806554347ULL},
    {"p_faults", Method::PMethod, true, 2262845705397639640ULL,
     4357111430187026791ULL},
    {"random", Method::Random, false, 13643892568673622403ULL,
     11376718906808054337ULL},
    {"random_faults", Method::Random, true, 12086598853644045418ULL,
     12347238173167869721ULL},
    {"autotvm", Method::AutoTvm, false, 9998006427364595515ULL,
     8047012551667023695ULL},
    {"autotvm_faults", Method::AutoTvm, true, 4451211975251665872ULL,
     2184174857944121938ULL},
};

std::string
determinismName(const ::testing::TestParamInfo<DeterminismCase> &info)
{
    return info.param.name;
}

// Named "Determinism" so the sanitizer CI job can select these tests
// with `ctest -R '^(Fuzz|Determinism)'`.
INSTANTIATE_TEST_SUITE_P(Determinism, DeterminismTest,
                         ::testing::ValuesIn(kDeterminismCases),
                         determinismName);

/**
 * Shape-family runs are pinned the same way: the digest folds the
 * serialized dispatch table (bucket bounds, hexfloat GFLOPS, config
 * lines) with the trial total and the hexfloat simulated clock, so any
 * perturbation of the per-bucket searches, the cascade seeding order,
 * or the table serialization fails against the recorded value.
 */
uint64_t
familyRunDigest()
{
    ShapeVar m;
    m.name = "m";
    m.lo = 1;
    m.hi = 16;
    ShapeFamily family = gemmOverM(64, 64, m);

    FamilyTuneOptions options;
    options.method = Method::QMethod;
    options.explore.trials = 12;
    options.explore.warmupPoints = 6;
    options.explore.seed = 0xfa5eed;
    options.samplesPerBucket = 2;
    FamilyTuneReport report =
        tuneFamily(family, Target::forGpu(v100()), options);

    std::ostringstream os;
    os << report.table.serialize() << '|' << report.totalTrials << '|'
       << std::hexfloat << report.simSeconds;
    return fnv1a(os.str());
}

// Suite name starts with "Determinism" so the sanitizer CI selection
// regex picks this test up too.
TEST(DeterminismFamilyTest, FixedSeedFamilyRunReproducesRecordedDigest)
{
    const uint64_t first = familyRunDigest();
    const uint64_t second = familyRunDigest();
    EXPECT_EQ(first, second)
        << "two same-seed family runs diverged in-process";
    EXPECT_EQ(first, 9800590346717069058ULL)
        << "family tuning no longer reproduces the recorded run "
        << "(actual digest " << first << "ULL)";
}

/**
 * Graph-level tuning is pinned the same way: the digest folds the DAG
 * fingerprint, the chosen partition (group membership and names), the
 * hexfloat stitched totals, the traffic accounting, and the trace event
 * count, so a perturbation of the beam search, the roofline scoring,
 * or the per-anchor explorer runs fails against the recorded value.
 */
uint64_t
graphRunDigest()
{
    graph::ComputeDag dag;
    dag.name = "chain";
    auto push = [&](graph::DagNode n) {
        dag.nodes.push_back(std::move(n));
        return static_cast<int>(dag.nodes.size()) - 1;
    };
    graph::DagNode data;
    data.kind = graph::NodeKind::Input;
    data.name = "data";
    data.shape = {1, 4, 10, 10};
    int d = push(data);
    graph::DagNode w;
    w.kind = graph::NodeKind::Input;
    w.name = "conv.w";
    w.shape = {6, 4, 3, 3};
    int wi = push(w);
    graph::DagNode conv;
    conv.kind = graph::NodeKind::Conv;
    conv.name = "conv";
    conv.inputs = {d, wi};
    conv.outChannels = 6;
    conv.kernel = 3;
    conv.stride = 1;
    conv.padding = 1;
    conv.shape = {1, 6, 10, 10};
    int c = push(conv);
    graph::DagNode bvec;
    bvec.kind = graph::NodeKind::Input;
    bvec.name = "conv.b";
    bvec.shape = {6};
    int bv = push(bvec);
    graph::DagNode bias;
    bias.kind = graph::NodeKind::Bias;
    bias.name = "conv.bias";
    bias.inputs = {c, bv};
    bias.shape = conv.shape;
    int b = push(bias);
    graph::DagNode relu;
    relu.kind = graph::NodeKind::Relu;
    relu.name = "conv.relu";
    relu.inputs = {b};
    relu.shape = conv.shape;
    int r = push(relu);
    graph::DagNode pool;
    pool.kind = graph::NodeKind::Pool;
    pool.name = "pool";
    pool.inputs = {r};
    pool.kernel = 2;
    pool.stride = 2;
    pool.shape = {1, 6, 5, 5};
    push(pool);

    TuneOptions options;
    options.method = Method::QMethod;
    options.explore.trials = 12;
    options.explore.warmupPoints = 6;
    options.explore.seed = 0x96aced;
    TraceRecorder trace;
    options.explore.obs.trace = &trace;
    graph::DagTuneReport report =
        graph::tuneDag(dag, Target::forGpu(v100()), options);

    std::ostringstream os;
    os << report.fingerprint << '|' << report.partition.groups.size();
    for (const graph::SubgraphReport &sub : report.groups) {
        os << '|' << sub.name << ':';
        for (int m : sub.members)
            os << m << ',';
        os << sub.tuned;
    }
    os << '|' << std::hexfloat << report.totalSeconds << '|'
       << report.simExploreSeconds << '|' << std::dec
       << report.trafficBytes << '|' << report.ephemeralBytes << '|'
       << trace.eventCount();
    return fnv1a(os.str());
}

// Suite name starts with "Determinism" so the sanitizer CI selection
// regex picks this test up too.
TEST(DeterminismGraphTest, FixedSeedGraphRunReproducesRecordedDigest)
{
    const uint64_t first = graphRunDigest();
    const uint64_t second = graphRunDigest();
    EXPECT_EQ(first, second)
        << "two same-seed graph runs diverged in-process";
    EXPECT_EQ(first, 9943629917423740432ULL)
        << "graph tuning no longer reproduces the recorded run "
        << "(actual digest " << first << "ULL)";
}

/**
 * Multi-anchor graph runs are pinned by the full JSONL text of their
 * trace, not only its event count: every `graph.subgraph` span, the
 * `run`/`space_build`/`report` events nested inside it, their order and
 * their `"i"` numbering. The values were recorded from the sequential
 * per-group loop, so a concurrent search of the anchors must splice each
 * search's events back exactly where the loop emitted them. The YOLO-v1
 * run certifies and repeats anchors, which pins where a reused group's
 * cached report and certificate land.
 */
uint64_t
graphTraceDigest(const Network &net, const Target &target, int trials,
                 bool certify)
{
    TuneOptions options;
    options.explore.trials = trials;
    options.explore.seed = 0x7ace;
    options.certify = certify;
    TraceRecorder trace;
    options.explore.obs.trace = &trace;
    graph::tuneDag(graph::dagFromNetwork(net), target, options);
    return fnv1a(trace.toJsonl());
}

TEST(DeterminismGraphTest, MultiAnchorTraceTextReproducesRecordedDigest)
{
    const uint64_t overfeat =
        graphTraceDigest(overFeat(1), Target::forCpu(xeonE5()), 4, false);
    EXPECT_EQ(overfeat, graphTraceDigest(overFeat(1),
                                         Target::forCpu(xeonE5()), 4, false))
        << "two same-seed OverFeat graph traces diverged in-process";
    EXPECT_EQ(overfeat, 6746426746598029705ULL)
        << "the OverFeat/Xeon graph trace no longer reproduces the "
        << "recorded text (actual digest " << overfeat << "ULL)";

    const uint64_t yolo =
        graphTraceDigest(yoloV1(1), Target::forGpu(v100()), 3, true);
    EXPECT_EQ(yolo, 13662664878674516088ULL)
        << "the YOLO-v1/V100 graph trace no longer reproduces the "
        << "recorded text (actual digest " << yolo << "ULL)";
}

/**
 * The cost-model-assisted path is pinned separately from the eight
 * model-off cases above (which prove that merely COMPILING the model in
 * changes nothing): a model is pretrained with synchronous refits (the
 * deterministic mode — the refit seed derives from the trial count),
 * then a second run warm-starts from its ranking and prunes every
 * step's candidates. Both the training run and the assisted run fold
 * into one digest, so a perturbation anywhere — feature extraction,
 * rank-loss training, snapshot swap, warm-start ordering, prune
 * tie-breaks — fails against the recorded value.
 */
uint64_t
prunedRunDigest(Method method, int assistedTrials = 16)
{
    Tensor a = placeholder("A", {256, 256});
    Tensor b = placeholder("B", {256, 256});
    Tensor out = ops::gemm(a, b);
    Target target = Target::forGpu(v100());

    CostModelOptions model_options;
    model_options.syncRefit = true;
    model_options.refitEvery = 32;
    CostModel model(model_options);

    ExploreOptions options;
    options.trials = 16;
    options.warmupPoints = 8;
    options.seed = 0xd5eed;
    options.costModel = &model;

    ScheduleSpace space1 = buildSpace(out.op(), target);
    Evaluator eval1(out.op(), space1, target);
    ExploreResult train = explore(Method::QMethod, eval1, options);

    options.prunerKeep = 0.5;
    options.trials = assistedTrials;
    TraceRecorder trace;
    options.obs.trace = &trace;
    ScheduleSpace space2 = buildSpace(out.op(), target);
    Evaluator eval2(out.op(), space2, target);
    ExploreResult assisted = explore(method, eval2, options);

    std::ostringstream os;
    os << train.bestPoint.key() << '|' << std::hexfloat
       << train.bestGflops << '|' << std::dec << model.refits() << '|'
       << model.numTrials() << '|' << assisted.bestPoint.key() << '|'
       << std::hexfloat << assisted.bestGflops << '|'
       << assisted.simSeconds << '|' << std::dec << assisted.trialsUsed
       << '|' << trace.eventCount();
    EXPECT_NE(trace.toJsonl().find("\"costmodel.prune\""),
              std::string::npos)
        << methodName(method) << ": the assisted run never pruned";
    return fnv1a(os.str());
}

// Suite name starts with "Determinism" so the sanitizer CI selection
// regex picks this test up too.
TEST(DeterminismCostModelTest, FixedSeedPrunedRunReproducesRecordedDigest)
{
    const uint64_t first = prunedRunDigest(Method::QMethod);
    const uint64_t second = prunedRunDigest(Method::QMethod);
    EXPECT_EQ(first, second)
        << "two same-seed pruned runs diverged in-process";
    EXPECT_EQ(first, 2985445411779289973ULL)
        << "the cost-model-assisted (warm-start + pruned) path no "
        << "longer reproduces the recorded run (actual digest " << first
        << "ULL)";
}

/**
 * The pruned path of the other three methods, pinned the same way: the
 * same Q-method training run, then an assisted run of the given method.
 * Pruned AutoTVM covers both its cold rounds (the persistent model
 * ranks the pool) and its warm rounds (the per-run GBT ranks it).
 */
struct PrunedCase
{
    const char *name;
    Method method;
    int trials; ///< assisted-run budget (P-method steps are expensive)
    uint64_t expectedDigest;
};

class DeterminismPrunedTest : public ::testing::TestWithParam<PrunedCase>
{};

TEST_P(DeterminismPrunedTest, FixedSeedPrunedRunReproducesRecordedDigest)
{
    const PrunedCase &pc = GetParam();
    const uint64_t first = prunedRunDigest(pc.method, pc.trials);
    const uint64_t second = prunedRunDigest(pc.method, pc.trials);
    EXPECT_EQ(first, second)
        << "two same-seed pruned runs diverged in-process";
    EXPECT_EQ(first, pc.expectedDigest)
        << pc.name << ": the pruned path no longer reproduces the "
        << "recorded run (actual digest " << first << "ULL)";
}

constexpr PrunedCase kPrunedCases[] = {
    {"p", Method::PMethod, 4, 14070704101341655875ULL},
    {"random", Method::Random, 16, 9693338250979669445ULL},
    {"autotvm", Method::AutoTvm, 16, 13552673637878723718ULL},
};

INSTANTIATE_TEST_SUITE_P(
    DeterminismPruned, DeterminismPrunedTest, ::testing::ValuesIn(kPrunedCases),
    [](const ::testing::TestParamInfo<PrunedCase> &info) {
        return std::string(info.param.name);
    });

/**
 * A P-method run whose deadline falls between two starting points of
 * one step: the per-start guard, not the per-step one, ends the run.
 */
TEST(DeterminismPathTest, PMethodDeadlineInsideStepReproducesRecordedDigest)
{
    OptionTweak tweak = [](ExploreOptions &options, const ScheduleSpace &) {
        // Step 1 begins at 65.6 s and passes 100 s after its third start.
        options.deadlineSimSeconds = 100.0;
    };
    const RunDigests first = runDigest(Method::PMethod, false, tweak);
    const RunDigests second = runDigest(Method::PMethod, false, tweak);
    EXPECT_EQ(first.full, second.full);
    EXPECT_EQ(first.full, 17837703292601528214ULL)
        << "actual digest " << first.full << "ULL";
}

/** Random search evaluates seedPoints one at a time before its draws. */
TEST(DeterminismPathTest, RandomSeedPointsReproduceRecordedDigest)
{
    OptionTweak tweak = [](ExploreOptions &options,
                           const ScheduleSpace &space) {
        Rng rng(0x5eed5);
        options.seedPoints = {space.initialPoint(), space.randomPoint(rng),
                              space.randomPoint(rng)};
    };
    const RunDigests first = runDigest(Method::Random, false, tweak);
    const RunDigests second = runDigest(Method::Random, false, tweak);
    EXPECT_EQ(first.full, second.full);
    EXPECT_EQ(first.full, 18349496799369398806ULL)
        << "actual digest " << first.full << "ULL";
}

} // namespace
} // namespace ft
