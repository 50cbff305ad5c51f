/**
 * @file
 * Schedule-space fuzzing: draw many random points per operator/target
 * space and check the invariants every point must satisfy —
 *
 *   1. decoding and lowering never throw (no point of the space is
 *      un-schedulable, even model-invalid ones),
 *   2. the point -> config -> serialized-line pipeline round-trips
 *      (decode/encode and serialize/parse are inverses on the space),
 *   3. for a sampled subset, the interpreted schedule computes the same
 *      tensor as the reference executor (with a float tolerance, since
 *      reduction order differs between schedules),
 *   4. the static verifier agrees with the legacy validity heuristics
 *      on every generator-produced nest (structural passes never fire;
 *      the gating verdict and first message match NestFeatures), and
 *      verified emission refuses exactly the rejected points,
 *   5. imperfect tiles (splits that multiply past a non-divisible
 *      extent, drawn from a shape-generic padded space) are accepted
 *      exactly when the bounds prover succeeds: with the guard contract
 *      declared the prover clamps the overshooting axes and the
 *      interpreter matches the reference; with the declaration stripped
 *      the same nest must fail the proof.
 *
 * The sample count per space defaults to 200 and can be reduced via the
 * FLEXTENSOR_FUZZ_SAMPLES environment variable (the sanitizer CI job
 * sets it low to keep the job fast).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/verify/verify.h"
#include "codegen/codegen.h"
#include "family/shape_var.h"
#include "exec/interpreter.h"
#include "exec/reference.h"
#include "ops/ops.h"
#include "schedule/generator.h"
#include "schedule/serialize.h"
#include "space/builder.h"
#include "support/rng.h"

namespace ft {
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

Tensor
fuzzGemm()
{
    Tensor a = placeholder("A", {12, 18});
    Tensor b = placeholder("B", {18, 8});
    return ops::gemm(a, b);
}

Tensor
fuzzConv2d()
{
    Tensor input = placeholder("I", {1, 4, 8, 8});
    Tensor weight = placeholder("W", {6, 4, 3, 3});
    ops::ConvParams p;
    p.padding = 1;
    return ops::conv2d(input, weight, p);
}

struct FuzzCase
{
    const char *name;
    Tensor (*build)();
    int target; ///< 0 = GPU (V100), 1 = CPU (Xeon)
};

/**
 * Committed regression corpus for one fuzz case: serialized config
 * lines from tests/corpus/<op>_<target>.point ('#' starts a comment).
 * Replayed deterministically before any random sampling, so a point
 * that once exposed a bug keeps guarding against its recurrence no
 * matter what the sampler draws (see CONTRIBUTING.md).
 */
std::vector<std::string>
corpusLines(const FuzzCase &fc)
{
    const std::string path = std::string(FT_TEST_CORPUS_DIR) + "/" +
                             fc.name +
                             (fc.target == 0 ? "_gpu" : "_cpu") +
                             ".point";
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        while (!line.empty() &&
               (line.back() == '\r' || line.back() == ' '))
            line.pop_back();
        if (line.empty() || line[0] == '#')
            continue;
        lines.push_back(line);
    }
    return lines;
}

class ScheduleFuzzTest : public ::testing::TestWithParam<FuzzCase>
{};

TEST_P(ScheduleFuzzTest, RandomPointsSatisfyInvariants)
{
    const FuzzCase &fc = GetParam();
    Tensor out = fc.build();
    Target target = fc.target == 0 ? Target::forGpu(v100())
                                   : Target::forCpu(xeonE5());
    MiniGraph g(out);
    Operation anchor = anchorOp(g);
    ScheduleSpace space = buildSpace(anchor, target);

    Rng rng(0xf022u + static_cast<uint64_t>(fc.target));
    BufferMap reference = makeRandomInputs(g, rng);
    runGraphReference(g, reference);
    const Buffer &gold = reference.at(anchor.get());

    // Replay the committed corpus first: every line must parse, encode
    // back into the space, lower, and execute against the reference.
    const std::vector<std::string> corpus = corpusLines(fc);
    ASSERT_FALSE(corpus.empty())
        << "missing or empty corpus file for " << fc.name;
    for (const std::string &line : corpus) {
        auto cfg = parseConfig(line);
        ASSERT_TRUE(cfg.has_value()) << "unparseable corpus line: "
                                     << line;
        auto p = space.pointOf(*cfg);
        ASSERT_TRUE(p.has_value())
            << "corpus line no longer encodes into the space: " << line;
        Scheduled s = generate(anchor, *cfg, target);
        ASSERT_FALSE(s.nest.loops.empty()) << line;
        verify::DiagReport report =
            verify::verifySchedule(s, target, &*cfg);
        EXPECT_EQ(report.hasError(), !s.features.valid)
            << line << "\n" << report.toJson();
        BufferMap buffers = reference;
        buffers.erase(anchor.get());
        runScheduled(s.nest, buffers, 1);
        const Buffer &got = buffers.at(anchor.get());
        ASSERT_EQ(got.numel(), gold.numel());
        for (int64_t i = 0; i < gold.numel(); ++i)
            ASSERT_NEAR(got[i], gold[i], 1e-3)
                << "corpus " << line << " element " << i;
    }

    const int samples = fuzzSamples();
    // Execution is the expensive invariant: spread ~8 executed samples
    // evenly over the run instead of checking every point.
    const int exec_stride = samples > 8 ? samples / 8 : 1;
    for (int trial = 0; trial < samples; ++trial) {
        Point p = space.randomPoint(rng);

        // (1) Decode and lower without throwing; lowering yields a nest.
        OpConfig cfg;
        Scheduled s;
        ASSERT_NO_THROW({
            cfg = space.decode(p);
            s = generate(anchor, cfg, target);
        }) << "point " << p.key();
        ASSERT_FALSE(s.nest.loops.empty()) << cfg.toString();

        // (4) The verifier's verdict matches the legacy heuristics:
        // on generator-produced nests only resource diagnostics can
        // gate, and the first one carries the legacy reason verbatim.
        verify::DiagReport report =
            verify::verifySchedule(s, target, &cfg);
        EXPECT_EQ(report.hasError(), !s.features.valid)
            << cfg.toString() << "\n" << report.toJson();
        if (const verify::Diag *e = report.firstError()) {
            EXPECT_EQ(e->message, s.features.invalidReason);
            for (const auto &d : report.diags()) {
                if (d.severity == verify::Severity::Error) {
                    EXPECT_EQ(d.code.rfind("FT-RES-", 0), 0u) << d.code;
                }
            }
        }

        // (2a) The serialized line parses back to the same config.
        const std::string line = serializeConfig(cfg);
        auto parsed = parseConfig(line);
        ASSERT_TRUE(parsed.has_value()) << line;
        EXPECT_EQ(serializeConfig(*parsed), line);

        // (2b) The config encodes back into the space, onto a point
        // that decodes to the same config.
        auto p2 = space.pointOf(cfg);
        ASSERT_TRUE(p2.has_value()) << line;
        EXPECT_EQ(serializeConfig(space.decode(*p2)), line);

        // (3) Interpreted execution matches the reference; rejected
        // points must be refused by verified emission instead.
        if (trial % exec_stride == 0) {
            if (report.hasError()) {
                EXPECT_THROW(emitVerified(s, target, "fuzz_kernel"),
                             verify::VerifyError);
            }
            BufferMap buffers = reference;
            buffers.erase(anchor.get());
            runScheduled(s.nest, buffers, 1 + trial % 3);
            const Buffer &got = buffers.at(anchor.get());
            ASSERT_EQ(got.numel(), gold.numel());
            for (int64_t i = 0; i < gold.numel(); ++i) {
                ASSERT_NEAR(got[i], gold[i], 1e-3)
                    << "config " << cfg.toString() << " element " << i;
            }
        }
    }
}

constexpr FuzzCase kFuzzCases[] = {
    {"gemm", fuzzGemm, 0},
    {"gemm", fuzzGemm, 1},
    {"conv2d", fuzzConv2d, 0},
    {"conv2d", fuzzConv2d, 1},
};

std::string
fuzzName(const ::testing::TestParamInfo<FuzzCase> &info)
{
    return std::string(info.param.name) +
           (info.param.target == 0 ? "_gpu" : "_cpu");
}

// The instantiation is named "Fuzz" so the sanitizer CI job can select
// these tests with `ctest -R '^(Fuzz|Determinism)'`.
INSTANTIATE_TEST_SUITE_P(Fuzz, ScheduleFuzzTest,
                         ::testing::ValuesIn(kFuzzCases), fuzzName);

/**
 * Imperfect-tile fuzzing over a shape-generic padded space: every
 * spatial axis extent is overridden to its next power of two (the
 * override the family layer has), so random points
 * routinely pick splits whose product overshoots the true extent —
 * exactly the regime the family layer tunes in.
 */
class ImperfectTileFuzzTest : public ::testing::TestWithParam<FuzzCase>
{};

TEST_P(ImperfectTileFuzzTest, GuardedOvershootIsProvenAndExact)
{
    const FuzzCase &fc = GetParam();
    Tensor out = fc.build();
    Target target = fc.target == 0 ? Target::forGpu(v100())
                                   : Target::forCpu(xeonE5());
    MiniGraph g(out);
    Operation anchor = anchorOp(g);

    // Pad every spatial extent up to a power of two; split factor
    // enumeration then ignores true-extent divisibility, the same way
    // the family layer's dynamic-axis override does.
    SpaceOptions space_options;
    const auto *compute = static_cast<const ComputeOp *>(anchor.get());
    for (const auto &iv : compute->axis())
        space_options.spatialExtentOverride.push_back(nextPow2(iv->extent));
    ScheduleSpace space = buildSpace(anchor, target, space_options);

    Rng rng(0x1f22u + static_cast<uint64_t>(fc.target));
    BufferMap reference = makeRandomInputs(g, rng);
    runGraphReference(g, reference);
    const Buffer &gold = reference.at(anchor.get());

    const int samples = fuzzSamples();
    const int exec_stride = samples > 8 ? samples / 8 : 1;
    int guarded_points = 0;
    for (int trial = 0; trial < samples; ++trial) {
        Point p = space.randomPoint(rng);
        OpConfig cfg;
        Scheduled s;
        ASSERT_NO_THROW({
            cfg = space.decode(p);
            s = generate(anchor, cfg, target);
        }) << "point " << p.key();
        if (s.nest.guardedAxes.empty())
            continue; // divisible draw; nothing imperfect to check
        ++guarded_points;

        // (5a) With the guard contract declared the bounds prover clamps
        // the overshooting axes: the proof must go through — any gating
        // diagnostic left is a resource limit, never an access bound.
        verify::DiagReport report =
            verify::verifySchedule(s, target, &cfg);
        for (const auto &d : report.diags()) {
            if (d.severity == verify::Severity::Error) {
                EXPECT_EQ(d.code.rfind("FT-OOB-", 0), std::string::npos)
                    << d.code << ": " << d.message << "\n"
                    << cfg.toString();
            }
        }

        // (5b) Strip the declaration: the identical nest with undeclared
        // overshoot keeps its raw spans and must FAIL the proof. The
        // verifier accepts imperfect tiles only because the guard is
        // part of the schedule's contract.
        Scheduled stripped = s;
        stripped.nest.guardedAxes.clear();
        verify::DiagReport undeclared;
        verify::checkAccessBounds(stripped.nest, undeclared);
        EXPECT_TRUE(undeclared.hasError())
            << "undeclared overshoot passed the bounds prover: "
            << cfg.toString();

        // (5c) Guarded execution skips the overshot iterations: the
        // interpreted result matches the reference exactly where the
        // proof succeeded. Points the verifier rejects (on resource
        // grounds) must still be refused by verified emission.
        if (trial % exec_stride == 0) {
            if (report.hasError()) {
                EXPECT_THROW(emitVerified(s, target, "fuzz_kernel"),
                             verify::VerifyError);
            }
            BufferMap buffers = reference;
            buffers.erase(anchor.get());
            runScheduled(s.nest, buffers, 1 + trial % 3);
            const Buffer &got = buffers.at(anchor.get());
            ASSERT_EQ(got.numel(), gold.numel());
            for (int64_t i = 0; i < gold.numel(); ++i) {
                ASSERT_NEAR(got[i], gold[i], 1e-3)
                    << "config " << cfg.toString() << " element " << i;
            }
        }
    }
    // The padded space must actually exercise the imperfect-tile
    // regime, or every check above was vacuous.
    EXPECT_GT(guarded_points, 0);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, ImperfectTileFuzzTest,
                         ::testing::ValuesIn(kFuzzCases), fuzzName);

} // namespace
} // namespace ft
