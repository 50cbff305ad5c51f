/**
 * @file
 * Soundness oracle for the transformation-legality certificates.
 *
 * The certificate layer claims a machine-checkable equivalence between
 * a lowered schedule and the reference program. This suite enforces the
 * two halves of that claim differentially:
 *
 *   1. Completeness half (fuzz): every generator-produced point over
 *      gemm/conv2d x GPU/CPU certifies without refutation, and every
 *      *Proven* certificate's schedule matches the reference executor
 *      bit-for-bit on integer-valued inputs (integer sums in fp32 are
 *      exact and order-independent, so "equivalent" really means
 *      equality, not tolerance).
 *
 *   2. Soundness half (adversarial): for every FT-DEP code a hand-built
 *      nest realizes the illegal transformation; the certificate must
 *      refute it under that exact code, and the schedule must either
 *      miscompute against the reference (executed fixtures) or be
 *      conservatively rejected by the structural verifier (fixtures the
 *      interpreter cannot safely run).
 *
 * Sample count per space honors FLEXTENSOR_FUZZ_SAMPLES (default 200),
 * matching tests/test_fuzz_schedule.cc.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/static_analyzer.h"
#include "analysis/verify/certificate.h"
#include "analysis/verify/deps.h"
#include "analysis/verify/verify.h"
#include "exec/interpreter.h"
#include "exec/reference.h"
#include "graph/dag.h"
#include "graph/partition.h"
#include "ops/ops.h"
#include "schedule/generator.h"
#include "space/builder.h"
#include "support/rng.h"

namespace ft {
namespace {

using verify::Obligation;
using verify::PartitionCertificate;
using verify::ScheduleCertificate;
using verify::Verdict;

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

Tensor
certGemm()
{
    Tensor a = placeholder("A", {12, 18});
    Tensor b = placeholder("B", {18, 8});
    return ops::gemm(a, b);
}

Tensor
certConv2d()
{
    Tensor input = placeholder("I", {1, 4, 8, 8});
    Tensor weight = placeholder("W", {6, 4, 3, 3});
    ops::ConvParams p;
    p.padding = 1;
    return ops::conv2d(input, weight, p);
}

/**
 * Inputs whose every element is a small integer. Products stay <= 9 and
 * the longest reduction here sums 36 of them, far below 2^24, so every
 * partial sum is exactly representable in fp32 and addition is
 * associative on the realized values: any legal schedule must reproduce
 * the reference output bit-for-bit, no tolerance needed.
 */
BufferMap
integerInputs(const MiniGraph &graph)
{
    BufferMap buffers;
    uint64_t c = 0x9e3779b9u;
    for (const auto &op : graph.postOrder()) {
        if (!op->isPlaceholder())
            continue;
        Buffer buf(op);
        for (int64_t i = 0; i < buf.numel(); ++i) {
            c = c * 6364136223846793005ULL + 1442695040888963407ULL;
            buf[i] = static_cast<float>(
                static_cast<int64_t>((c >> 33) % 7) - 3);
        }
        buffers.emplace(op.get(), std::move(buf));
    }
    return buffers;
}

/** First obligation of the certificate refuted under `code`, or null. */
const Obligation *
refutedUnder(const ScheduleCertificate &cert, const char *code)
{
    for (const Obligation &o : cert.obligations)
        if (o.verdict == Verdict::Refuted && o.code == code)
            return &o;
    return nullptr;
}

struct CertifyCase
{
    const char *name;
    Tensor (*build)();
    int target; ///< 0 = GPU (V100), 1 = CPU (Xeon)
};

class CertifyFuzzTest : public ::testing::TestWithParam<CertifyCase>
{};

/**
 * Differential completeness + soundness over the real schedule space:
 * no generator point is ever refuted, and every Proven point computes
 * the reference tensor exactly.
 */
TEST_P(CertifyFuzzTest, ProvenPointsMatchReferenceBitForBit)
{
    const CertifyCase &cc = GetParam();
    Tensor out = cc.build();
    Target target = cc.target == 0 ? Target::forGpu(v100())
                                   : Target::forCpu(xeonE5());
    MiniGraph g(out);
    Operation anchor = anchorOp(g);
    ScheduleSpace space = buildSpace(anchor, target);

    BufferMap reference = integerInputs(g);
    runGraphReference(g, reference);
    const Buffer &gold = reference.at(anchor.get());

    Rng rng(0xceef1u + static_cast<uint64_t>(cc.target));
    const int samples = fuzzSamples();
    int proven = 0, refuted = 0, unknown = 0;
    for (int trial = 0; trial < samples; ++trial) {
        Point p = space.randomPoint(rng);
        OpConfig cfg = space.decode(p);
        Scheduled s = generate(anchor, cfg, target);

        ScheduleCertificate cert = verify::certifySchedule(s, target, &cfg);
        ASSERT_FALSE(cert.obligations.empty()) << cfg.toString();
        switch (cert.verdict) {
        case Verdict::Proven:
            ++proven;
            break;
        case Verdict::Refuted:
            ++refuted;
            break;
        case Verdict::Unknown:
            ++unknown;
            break;
        }
        // The generator only emits exact mixed-radix splits and legal
        // bindings; a refutation here is a certificate-engine bug.
        ASSERT_NE(cert.verdict, Verdict::Refuted)
            << cfg.toString() << "\n"
            << cert.toJson();

        if (cert.verdict != Verdict::Proven)
            continue;
        BufferMap buffers = reference;
        buffers.erase(anchor.get());
        runScheduled(s.nest, buffers, 1 + trial % 3);
        const Buffer &got = buffers.at(anchor.get());
        ASSERT_EQ(got.numel(), gold.numel());
        for (int64_t i = 0; i < gold.numel(); ++i) {
            ASSERT_EQ(got[i], gold[i])
                << "certified-equivalent schedule diverged from the "
                   "reference at element "
                << i << "\nconfig " << cfg.toString() << "\n"
                << cert.toJson();
        }
    }
    EXPECT_EQ(refuted, 0);
    EXPECT_GT(proven, 0) << "no point certified: " << unknown
                         << " unknown of " << samples;
}

constexpr CertifyCase kCertifyCases[] = {
    {"gemm", certGemm, 0},
    {"gemm", certGemm, 1},
    {"conv2d", certConv2d, 0},
    {"conv2d", certConv2d, 1},
};

std::string
certifyName(const ::testing::TestParamInfo<CertifyCase> &info)
{
    return std::string(info.param.name) +
           (info.param.target == 0 ? "_gpu" : "_cpu");
}

// Named "Fuzz" so the sanitizer/soundness CI jobs can select the whole
// differential family with `ctest -R '^Fuzz'`.
INSTANTIATE_TEST_SUITE_P(Fuzz, CertifyFuzzTest,
                         ::testing::ValuesIn(kCertifyCases), certifyName);

/* ------------------------------------------------------------------ */
/* Hand-built adversarial fixtures: one per FT-DEP code.               */
/* ------------------------------------------------------------------ */

/** A gemm MiniGraph with anchor and axis handles for nest surgery. */
struct GemmRig
{
    MiniGraph g;
    Operation anchor;
    const IterVarNode *i;
    const IterVarNode *j;
    const IterVarNode *k;

    explicit GemmRig(int64_t m, int64_t n, int64_t kk)
        : g(ops::gemm(placeholder("A", {m, kk}),
                      placeholder("B", {kk, n})))
    {
        anchor = anchorOp(g);
        const auto *op = static_cast<const ComputeOp *>(anchor.get());
        i = op->axis()[0].get();
        j = op->axis()[1].get();
        k = op->reduceAxis()[0].get();
    }
};

SubLoop
sub(const IterVarNode *origin, int64_t extent, int64_t stride, int level,
    LoopAnno anno = LoopAnno::Serial)
{
    SubLoop l;
    l.name = origin->name + "." + std::to_string(level);
    l.extent = extent;
    l.anno = anno;
    l.origin = origin;
    l.stride = stride;
    l.level = level;
    return l;
}

/** All-ones inputs: reference output is exactly K everywhere, so any
 *  dropped, duplicated, or re-accumulated iteration shows immediately. */
BufferMap
onesInputs(const MiniGraph &graph)
{
    BufferMap buffers;
    for (const auto &op : graph.postOrder()) {
        if (!op->isPlaceholder())
            continue;
        Buffer buf(op);
        buf.fill(1.0f);
        buffers.emplace(op.get(), std::move(buf));
    }
    return buffers;
}

/** Run `nest` and its reference on all-ones inputs; true iff they
 *  disagree on some element (the refuted schedule miscomputed). */
bool
mismatchesReference(const GemmRig &rig, const LoopNest &nest)
{
    BufferMap reference = onesInputs(rig.g);
    runGraphReference(rig.g, reference);
    const Buffer &gold = reference.at(rig.anchor.get());

    BufferMap buffers = onesInputs(rig.g);
    runScheduled(nest, buffers, 1);
    const Buffer &got = buffers.at(rig.anchor.get());
    EXPECT_EQ(got.numel(), gold.numel());
    for (int64_t idx = 0; idx < gold.numel(); ++idx)
        if (got[idx] != gold[idx])
            return true;
    return false;
}

/**
 * FT-DEP-002: a reduce axis of extent 4 realized by three (extent 2,
 * stride 1) sub-loops. The mixed-radix map a+b+c hits 1 and 2 three
 * times each — duplicated reduction terms. The certificate must refute
 * the split, and the interpreter must overshoot the reference sum.
 */
TEST(CertifyRefutedTest, ReduceDuplicateIsRefutedAndMiscomputes)
{
    GemmRig rig(4, 4, 4);
    LoopNest nest;
    nest.op = rig.anchor;
    nest.loops = {sub(rig.i, 4, 1, 0), sub(rig.j, 4, 1, 0),
                  sub(rig.k, 2, 1, 0), sub(rig.k, 2, 1, 1),
                  sub(rig.k, 2, 1, 2)};

    Scheduled s;
    s.nest = nest;
    Target target = Target::forCpu(xeonE5());
    ScheduleCertificate cert = verify::certifySchedule(s, target);
    EXPECT_EQ(cert.verdict, Verdict::Refuted) << cert.toJson();
    ASSERT_NE(refutedUnder(cert, verify::kDepReduceDuplicate), nullptr)
        << cert.toJson();
    EXPECT_TRUE(mismatchesReference(rig, nest))
        << "refuted schedule still matched the reference";
}

/**
 * FT-DEP-004: the same duplication on a *spatial* axis. Each revisit of
 * an output row re-runs the whole reduction, so rows accumulate a
 * multiple of the true value.
 */
TEST(CertifyRefutedTest, SpatialDuplicateIsRefutedAndMiscomputes)
{
    GemmRig rig(4, 4, 4);
    LoopNest nest;
    nest.op = rig.anchor;
    nest.loops = {sub(rig.i, 2, 1, 0), sub(rig.i, 2, 1, 1),
                  sub(rig.i, 2, 1, 2), sub(rig.j, 4, 1, 0),
                  sub(rig.k, 4, 1, 0)};

    Scheduled s;
    s.nest = nest;
    Target target = Target::forCpu(xeonE5());
    ScheduleCertificate cert = verify::certifySchedule(s, target);
    EXPECT_EQ(cert.verdict, Verdict::Refuted) << cert.toJson();
    ASSERT_NE(refutedUnder(cert, verify::kDepSpatialDuplicate), nullptr)
        << cert.toJson();
    EXPECT_TRUE(mismatchesReference(rig, nest));
}

/**
 * FT-DEP-003 (hole): spatial extent 6 realized by (2,stride 4) x
 * (2,stride 1) — image {0,1,4,5}, rows 2 and 3 are never written. The
 * certificate refutes the domain obligation and the untouched rows
 * stay zero against a nonzero reference.
 */
TEST(CertifyRefutedTest, DomainHoleIsRefutedAndMiscomputes)
{
    GemmRig rig(6, 4, 4);
    LoopNest nest;
    nest.op = rig.anchor;
    nest.loops = {sub(rig.i, 2, 4, 0), sub(rig.i, 2, 1, 1),
                  sub(rig.j, 4, 1, 0), sub(rig.k, 4, 1, 0)};

    Scheduled s;
    s.nest = nest;
    Target target = Target::forCpu(xeonE5());
    ScheduleCertificate cert = verify::certifySchedule(s, target);
    EXPECT_EQ(cert.verdict, Verdict::Refuted) << cert.toJson();
    ASSERT_NE(refutedUnder(cert, verify::kDepDomainMismatch), nullptr)
        << cert.toJson();
    EXPECT_TRUE(mismatchesReference(rig, nest));
}

/**
 * FT-DEP-003 (unguarded overshoot): (2,stride 4) x (4,stride 1) maps
 * onto 0..7 but the axis extent is 6 and no guard is declared. The
 * certificate refutes the domain obligation; execution would write out
 * of bounds, so soundness here means the structural verifier also
 * rejects the nest conservatively (the bounds prover fails).
 */
TEST(CertifyRefutedTest, UnguardedOvershootIsRefutedAndDiagnosed)
{
    GemmRig rig(6, 4, 4);
    LoopNest nest;
    nest.op = rig.anchor;
    nest.loops = {sub(rig.i, 2, 4, 0), sub(rig.i, 4, 1, 1),
                  sub(rig.j, 4, 1, 0), sub(rig.k, 4, 1, 0)};

    Scheduled s;
    s.nest = nest;
    Target target = Target::forCpu(xeonE5());
    ScheduleCertificate cert = verify::certifySchedule(s, target);
    EXPECT_EQ(cert.verdict, Verdict::Refuted) << cert.toJson();
    ASSERT_NE(refutedUnder(cert, verify::kDepDomainMismatch), nullptr)
        << cert.toJson();
    verify::DiagReport report = verify::verifySchedule(s, target);
    EXPECT_TRUE(report.hasError())
        << "overshooting nest passed the structural verifier:\n"
        << report.toJson();
}

/**
 * FT-DEP-005: a *guarded* reduce axis of extent 5 realized by (3,
 * stride 2) x (3, stride 1). The guard clips the overshoot (indices 5
 * and 6), but 2 and 4 are still produced twice *below* the guard, so
 * guarding is not enough — the live portion must also be injective.
 */
TEST(CertifyRefutedTest, InexactGuardIsRefutedAndMiscomputes)
{
    GemmRig rig(4, 4, 5);
    LoopNest nest;
    nest.op = rig.anchor;
    nest.loops = {sub(rig.i, 4, 1, 0), sub(rig.j, 4, 1, 0),
                  sub(rig.k, 3, 2, 0), sub(rig.k, 3, 1, 1)};
    nest.guardedAxes = {rig.k};

    Scheduled s;
    s.nest = nest;
    Target target = Target::forCpu(xeonE5());
    ScheduleCertificate cert = verify::certifySchedule(s, target);
    EXPECT_EQ(cert.verdict, Verdict::Refuted) << cert.toJson();
    ASSERT_NE(refutedUnder(cert, verify::kDepGuardInexact), nullptr)
        << cert.toJson();
    EXPECT_TRUE(mismatchesReference(rig, nest));
}

/**
 * FT-DEP-001: a reduction sub-loop bound to a concurrent dimension.
 * The carried dependence (every k iteration accumulates into the same
 * output element) makes the binding a race. The interpreter refuses to
 * run such nests, so soundness here is conservative diagnosis: the
 * exact dependence checker emits FT-DEP-001 as an error.
 */
TEST(CertifyRefutedTest, ConcurrentCarriedDependenceIsRefutedAndDiagnosed)
{
    GemmRig rig(4, 4, 4);
    LoopNest nest;
    nest.op = rig.anchor;
    nest.loops = {sub(rig.i, 4, 1, 0, LoopAnno::BlockX),
                  sub(rig.j, 4, 1, 0, LoopAnno::ThreadX),
                  sub(rig.k, 4, 1, 0, LoopAnno::ThreadX)};

    Scheduled s;
    s.nest = nest;
    Target target = Target::forGpu(v100());
    ScheduleCertificate cert = verify::certifySchedule(s, target);
    EXPECT_EQ(cert.verdict, Verdict::Refuted) << cert.toJson();
    ASSERT_NE(refutedUnder(cert, verify::kDepConcurrentCarried), nullptr)
        << cert.toJson();

    verify::DiagReport report;
    verify::checkDependences(nest, report);
    EXPECT_TRUE(report.hasError()) << report.toJson();
    bool sawDep001 = false;
    for (const auto &d : report.diags())
        sawDep001 |= d.code == verify::kDepConcurrentCarried;
    EXPECT_TRUE(sawDep001) << report.toJson();
}

/**
 * Positive control for the guard contract: a guarded axis whose live
 * portion is exactly covered certifies Proven, and the guarded
 * schedule still matches the reference bit-for-bit.
 */
TEST(CertifyRefutedTest, ExactGuardIsProvenAndExact)
{
    GemmRig rig(4, 4, 5);
    LoopNest nest;
    nest.op = rig.anchor;
    nest.loops = {sub(rig.i, 4, 1, 0), sub(rig.j, 4, 1, 0),
                  sub(rig.k, 2, 4, 0), sub(rig.k, 4, 1, 1)};
    nest.guardedAxes = {rig.k};

    Scheduled s;
    s.nest = nest;
    Target target = Target::forCpu(xeonE5());
    ScheduleCertificate cert = verify::certifySchedule(s, target);
    EXPECT_EQ(cert.verdict, Verdict::Proven) << cert.toJson();
    EXPECT_FALSE(mismatchesReference(rig, nest));
}

/** Certificate JSON carries the lower-case schema the report folds on. */
TEST(CertifyJsonTest, CertificateJsonSchema)
{
    GemmRig rig(4, 4, 4);
    LoopNest nest;
    nest.op = rig.anchor;
    nest.loops = {sub(rig.i, 4, 1, 0), sub(rig.j, 4, 1, 0),
                  sub(rig.k, 4, 1, 0)};
    Scheduled s;
    s.nest = nest;
    ScheduleCertificate cert =
        verify::certifySchedule(s, Target::forCpu(xeonE5()));
    EXPECT_EQ(cert.verdict, Verdict::Proven);
    const std::string json = cert.toJson();
    EXPECT_NE(json.find("\"verdict\":\"proven\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"obligations\":["), std::string::npos) << json;
    EXPECT_NE(json.find("\"transform\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"code\""), std::string::npos) << json;
    EXPECT_EQ(std::string(verify::verdictName(Verdict::Refuted)),
              "refuted");
    EXPECT_EQ(std::string(verify::verdictName(Verdict::Unknown)),
              "unknown");
}

/* ------------------------------------------------------------------ */
/* FT-DEP-006: fusion-partition certification.                         */
/* ------------------------------------------------------------------ */

int
pushInput(graph::ComputeDag &dag, const std::string &name,
          std::vector<int64_t> shape)
{
    graph::DagNode n;
    n.kind = graph::NodeKind::Input;
    n.name = name;
    n.shape = std::move(shape);
    dag.nodes.push_back(std::move(n));
    return static_cast<int>(dag.nodes.size()) - 1;
}

int
pushConv(graph::ComputeDag &dag, const std::string &name, int data,
         int64_t outc, int64_t kernel, int64_t stride, int64_t pad)
{
    // A copy: the push_back below may reallocate dag.nodes.
    const std::vector<int64_t> in =
        dag.nodes[static_cast<size_t>(data)].shape;
    graph::DagNode w;
    w.kind = graph::NodeKind::Input;
    w.name = name + ".w";
    w.shape = {outc, in[1], kernel, kernel};
    dag.nodes.push_back(std::move(w));
    const int wid = static_cast<int>(dag.nodes.size()) - 1;

    graph::DagNode n;
    n.kind = graph::NodeKind::Conv;
    n.name = name;
    n.inputs = {data, wid};
    n.kernel = kernel;
    n.stride = stride;
    n.outChannels = outc;
    n.padding = pad;
    n.shape = {in[0], outc, (in[2] + 2 * pad - kernel) / stride + 1,
               (in[3] + 2 * pad - kernel) / stride + 1};
    dag.nodes.push_back(std::move(n));
    return static_cast<int>(dag.nodes.size()) - 1;
}

int
pushRelu(graph::ComputeDag &dag, const std::string &name, int data)
{
    graph::DagNode n;
    n.kind = graph::NodeKind::Relu;
    n.name = name;
    n.inputs = {data};
    n.shape = dag.nodes[static_cast<size_t>(data)].shape;
    dag.nodes.push_back(std::move(n));
    return static_cast<int>(dag.nodes.size()) - 1;
}

int
pushPool(graph::ComputeDag &dag, const std::string &name, int data,
         int64_t kernel, int64_t stride)
{
    const auto &in = dag.nodes[static_cast<size_t>(data)].shape;
    graph::DagNode n;
    n.kind = graph::NodeKind::Pool;
    n.name = name;
    n.inputs = {data};
    n.kernel = kernel;
    n.stride = stride;
    n.shape = {in[0], in[1], (in[2] - kernel) / stride + 1,
               (in[3] - kernel) / stride + 1};
    dag.nodes.push_back(std::move(n));
    return static_cast<int>(dag.nodes.size()) - 1;
}

/** conv(3x3, pad 1) -> relu -> pool(2x2) chain. */
graph::ComputeDag
certChainDag()
{
    graph::ComputeDag dag;
    dag.name = "certify-chain";
    int data = pushInput(dag, "data", {1, 4, 10, 10});
    int conv = pushConv(dag, "conv", data, 6, 3, 1, 1);
    int relu = pushRelu(dag, "relu", conv);
    pushPool(dag, "pool", relu, 2, 2);
    std::string why;
    EXPECT_TRUE(dag.validate(&why)) << why;
    return dag;
}

const Obligation *
refutedFusion(const PartitionCertificate &cert)
{
    for (const Obligation &o : cert.obligations)
        if (o.verdict == Verdict::Refuted)
            return &o;
    for (const auto &g : cert.groups)
        for (const Obligation &o : g.obligations)
            if (o.verdict == Verdict::Refuted)
                return &o;
    return nullptr;
}

/** Every partition mode the search can emit certifies Proven. */
TEST(CertifyPartitionTest, SearchPartitionsAreCertified)
{
    graph::ComputeDag dag = certChainDag();
    Target target = Target::forGpu(v100());
    for (const graph::Partition &p :
         {graph::partitionDag(dag, target),
          graph::epiloguePartition(dag, target),
          graph::nonePartition(dag, target)}) {
        PartitionCertificate cert =
            verify::certifyPartition(dag, p, target);
        EXPECT_TRUE(cert.equivalent()) << cert.toJson();
        EXPECT_EQ(refutedFusion(cert), nullptr) << cert.toJson();
    }
}

/** Dropping a member breaks assignment coverage (FT-DEP-006). */
TEST(CertifyPartitionTest, MissingMemberRefutesCoverage)
{
    graph::ComputeDag dag = certChainDag();
    Target target = Target::forGpu(v100());
    graph::Partition p = graph::partitionDag(dag, target);
    ASSERT_FALSE(p.groups.empty());
    ASSERT_FALSE(p.groups.back().members.empty());
    p.groups.back().members.pop_back();
    p.groups.back().ephemeral.pop_back();

    PartitionCertificate cert = verify::certifyPartition(dag, p, target);
    EXPECT_EQ(cert.verdict, Verdict::Refuted) << cert.toJson();
    const Obligation *o = refutedFusion(cert);
    ASSERT_NE(o, nullptr);
    EXPECT_EQ(o->code, verify::kDepFusionIllegal);
    EXPECT_EQ(o->id, "fusion/cover");
}

/** Reversing a group's members breaks the streaming order. */
TEST(CertifyPartitionTest, DescendingMembersRefuteStreamingOrder)
{
    graph::ComputeDag dag = certChainDag();
    Target target = Target::forGpu(v100());
    graph::Partition p = graph::partitionDag(dag, target);
    graph::FusionGroup *multi = nullptr;
    for (auto &g : p.groups)
        if (g.members.size() > 1)
            multi = &g;
    if (multi == nullptr)
        GTEST_SKIP() << "beam produced no multi-member group";
    std::reverse(multi->members.begin(), multi->members.end());
    std::reverse(multi->ephemeral.begin(), multi->ephemeral.end());

    PartitionCertificate cert = verify::certifyPartition(dag, p, target);
    EXPECT_EQ(cert.verdict, Verdict::Refuted) << cert.toJson();
    const Obligation *o = refutedFusion(cert);
    ASSERT_NE(o, nullptr);
    EXPECT_EQ(o->code, verify::kDepFusionIllegal);
}

/** Marking an escaping tensor ephemeral is refuted: a consumer outside
 *  the group would read a buffer that never reaches DRAM. */
TEST(CertifyPartitionTest, EscapingEphemeralIsRefuted)
{
    graph::ComputeDag dag = certChainDag();
    Target target = Target::forGpu(v100());
    graph::Partition p = graph::nonePartition(dag, target);
    // Every group is a singleton; its member feeds the next group (or
    // is the graph output), so flagging it ephemeral must refute.
    ASSERT_FALSE(p.groups.empty());
    ASSERT_FALSE(p.groups.front().ephemeral.empty());
    p.groups.front().ephemeral[0] = true;

    PartitionCertificate cert = verify::certifyPartition(dag, p, target);
    EXPECT_EQ(cert.verdict, Verdict::Refuted) << cert.toJson();
    const Obligation *o = refutedFusion(cert);
    ASSERT_NE(o, nullptr);
    EXPECT_EQ(o->code, verify::kDepFusionIllegal);
    EXPECT_NE(o->id.find("fusion/escape/"), std::string::npos) << o->id;
}

} // namespace
} // namespace ft
