/**
 * @file
 * Guards for the exploration hot-path optimizations: the batched and
 * scratch-buffer code paths must be BIT-IDENTICAL to the scalar
 * originals (the determinism digests depend on it), and the integer
 * point keys that checkpoints and caches persist must never change
 * value across builds.
 *
 * Float comparisons here are deliberately EXPECT_EQ, not NEAR: the
 * batched kernels promise the same accumulation order as the scalar
 * forms, so any difference at all is a regression.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "explore/checkpoint.h"
#include "nn/mlp.h"
#include "ops/ops.h"
#include "space/builder.h"
#include "support/rng.h"

namespace ft {
namespace {

std::vector<float>
randomVec(Rng &rng, int n)
{
    std::vector<float> out(n);
    for (float &v : out)
        v = static_cast<float>(rng.uniform(-2.0, 2.0));
    return out;
}

TEST(PerfPaths, LinearForwardBatchMatchesScalarExactly)
{
    Rng rng(101);
    for (auto [in, out, m] : {std::tuple<int, int, int>{1, 1, 1},
                              {3, 5, 4},
                              {16, 9, 7},
                              {64, 64, 17},
                              {33, 2, 32}}) {
        Linear layer(in, out, rng);
        std::vector<float> x = randomVec(rng, in * m);
        std::vector<float> y(static_cast<size_t>(out) * m, -7.0f);
        layer.forwardBatch(x.data(), m, y.data());
        for (int s = 0; s < m; ++s) {
            std::vector<float> row(x.begin() + static_cast<size_t>(s) * in,
                                   x.begin() +
                                       static_cast<size_t>(s + 1) * in);
            std::vector<float> want = layer.forward(row);
            for (int o = 0; o < out; ++o) {
                EXPECT_EQ(want[o], y[static_cast<size_t>(s) * out + o])
                    << "in=" << in << " out=" << out << " m=" << m
                    << " sample=" << s << " output=" << o;
            }
        }
    }
}

TEST(PerfPaths, MlpForwardBatchMatchesScalarExactly)
{
    Rng rng(202);
    Mlp net({11, 24, 24, 6}, rng);
    const int m = 13;
    std::vector<float> x = randomVec(rng, 11 * m);
    MlpScratch scratch;
    const float *y = net.forwardBatch(x.data(), m, scratch);
    for (int s = 0; s < m; ++s) {
        std::vector<float> row(x.begin() + static_cast<size_t>(s) * 11,
                               x.begin() + static_cast<size_t>(s + 1) * 11);
        std::vector<float> want = net.forward(row);
        for (int o = 0; o < 6; ++o)
            EXPECT_EQ(want[o], y[static_cast<size_t>(s) * 6 + o])
                << "sample=" << s << " output=" << o;
    }
    // A second batch through the same scratch (now warm) must agree too.
    const float *y2 = net.forwardBatch(x.data(), m, scratch);
    for (int i = 0; i < 13 * 6; ++i)
        EXPECT_EQ(y[i], y2[i]);
}

TEST(PerfPaths, AccumulateGradScratchMatchesLegacy)
{
    // Two identical networks; train one through the legacy entry point
    // and one through the scratch-buffer entry point. Losses, and the
    // parameters after the AdaDelta step, must match bit for bit.
    Rng rng_a(303), rng_b(303), rng_x(404);
    Mlp legacy({8, 16, 16, 4}, rng_a);
    Mlp scratched({8, 16, 16, 4}, rng_b);
    MlpScratch scratch;
    AdaDeltaOptions opt;
    for (int step = 0; step < 5; ++step) {
        std::vector<float> x = randomVec(rng_x, 8);
        int action = step % 4;
        float target = static_cast<float>(rng_x.uniform(-1.0, 1.0));
        legacy.zeroGrad();
        scratched.zeroGrad();
        double loss_a = legacy.accumulateGrad(x, action, target);
        double loss_b = scratched.accumulateGrad(x, action, target, scratch);
        EXPECT_EQ(loss_a, loss_b) << "step=" << step;
        legacy.step(opt);
        scratched.step(opt);
    }
    std::vector<float> probe = randomVec(rng_x, 8);
    std::vector<float> out_a = legacy.forward(probe);
    std::vector<float> out_b = scratched.forward(probe);
    for (size_t i = 0; i < out_a.size(); ++i)
        EXPECT_EQ(out_a[i], out_b[i]);
}

TEST(PerfPaths, PointKeyPinnedConstants)
{
    // These values are persisted in caches and coalescing maps; changing
    // the hash function silently invalidates them, so the constants are
    // pinned here (FNV-1a 64 over little-endian index bytes).
    EXPECT_EQ(Point{}.key64(), 1469598103934665603ULL);
    EXPECT_EQ((Point{{0}}).key64(), 5187598658539770339ULL);
    EXPECT_EQ((Point{{1, 2, 3}}).key64(), 8115307341289149987ULL);
    EXPECT_EQ((Point{{7, 0, 1023, 42}}).key64(), 5904968694198624284ULL);
}

TEST(PerfPaths, PointKeyDistinguishesNeighbors)
{
    // Not a collision-freedom proof — just that the key separates the
    // points the explorers actually compare: a point, its single-knob
    // neighbors, and permuted coordinates.
    Point p{{4, 1, 9, 0, 2}};
    EXPECT_NE(p.key64(), (Point{{4, 1, 9, 0, 3}}).key64());
    EXPECT_NE(p.key64(), (Point{{1, 4, 9, 0, 2}}).key64());
    EXPECT_NE(p.key64(), (Point{{4, 1, 9, 0}}).key64());
    EXPECT_EQ(p.key64(), (Point{{4, 1, 9, 0, 2}}).key64());
}

TEST(PerfPaths, FeaturesIntoMatchesFeatures)
{
    // featuresInto reuses an incremental decode; walking random points
    // through ONE scratch must reproduce the from-scratch features()
    // exactly (this exercises decodeInto's changed-knob-only re-apply).
    Tensor a = placeholder("A", {128, 128});
    Tensor b = placeholder("B", {128, 128});
    Tensor out = ops::gemm(a, b);
    Target target = Target::forGpu(v100());
    ScheduleSpace space = buildSpace(out.op(), target);

    Rng rng(505);
    DecodeScratch scratch;
    std::vector<double> got;
    for (int i = 0; i < 24; ++i) {
        Point p = space.randomPoint(rng);
        // Every other round, mutate one knob only — the incremental
        // decode's common case.
        if (i % 2 == 1 && !p.idx.empty())
            p.idx[i % p.idx.size()] = 0;
        std::vector<double> want = space.features(p);
        space.featuresInto(p, scratch, got);
        ASSERT_EQ(want.size(), got.size());
        for (size_t j = 0; j < want.size(); ++j)
            EXPECT_EQ(want[j], got[j]) << "round=" << i << " feature=" << j;
    }
}

TEST(PerfPaths, CheckpointV2QuarantineRoundTrip)
{
    CheckpointState state;
    state.method = "q";
    state.seed = 77;
    state.spaceSig = "5/10";
    state.trial = 3;
    state.quarantine.push_back(Point{{12, 0, 3, 1, 9}});
    state.quarantine.push_back(Point{{0, 0, 0, 0, 0}});

    const std::string path = ::testing::TempDir() + "/ckpt_v2_quarantine";
    ASSERT_TRUE(saveCheckpoint(path, state));
    auto loaded = loadCheckpoint(path);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->quarantine.size(), 2u);
    EXPECT_EQ(loaded->quarantine[0].idx, (std::vector<int64_t>{12, 0, 3, 1, 9}));
    EXPECT_EQ(loaded->quarantine[1].idx, (std::vector<int64_t>{0, 0, 0, 0, 0}));
    std::remove(path.c_str());
}

} // namespace
} // namespace ft
