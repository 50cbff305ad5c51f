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

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dnn/models.h"
#include "explore/checkpoint.h"
#include "graph/lower.h"
#include "nn/mlp.h"
#include "ops/ops.h"
#include "space/builder.h"
#include "support/math_util.h"
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
    for (int step = 0; step < 5; ++step) {
        std::vector<float> x = randomVec(rng_x, 8);
        int action = step % 4;
        float target = static_cast<float>(rng_x.uniform(-1.0, 1.0));
        legacy.zeroGrad();
        scratched.zeroGrad();
        double loss_a = legacy.accumulateGrad(x, action, target);
        double loss_b = scratched.accumulateGrad(x, action, target, scratch);
        EXPECT_EQ(loss_a, loss_b) << "step=" << step;
        legacy.step();
        scratched.step();
    }
    std::vector<float> probe = randomVec(rng_x, 8);
    std::vector<float> out_a = legacy.forward(probe);
    std::vector<float> out_b = scratched.forward(probe);
    for (size_t i = 0; i < out_a.size(); ++i)
        EXPECT_EQ(out_a[i], out_b[i]);
}

/** Q-network shapes the explorers build, {features, 64, 64, 64,
 *  directions}: conv2d on the GPU and CPU models, gemm on the GPU. */
const std::vector<std::vector<int>> kQShapes = {
    {40, 64, 64, 64, 70}, {35, 64, 64, 64, 38}, {22, 64, 64, 64, 34}};

/** Batch sizes around the kernels' 4-sample and 16-output tiles,
 *  including the propose batch (4) and the train batch (<= 32). */
const int kBatchSizes[] = {1, 2, 3, 4, 5, 8, 17, 20, 32};

/** Index of the first float whose bit pattern differs, or -1. */
long
firstBitMismatch(const float *a, const float *b, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0)
            return static_cast<long>(i);
    }
    return -1;
}

long
firstBitMismatch(const std::vector<float> &a, const std::vector<float> &b)
{
    if (a.size() != b.size())
        return 0;
    return firstBitMismatch(a.data(), b.data(), a.size());
}

/** Every row of a forwardBatch() over `x` equals the scalar forward(). */
void
expectBatchMatchesScalar(const Mlp &net, const std::vector<float> &x, int m,
                         const std::string &what)
{
    const int in = net.inputDim();
    const int out = net.outputDim();
    MlpScratch scratch;
    const float *y = net.forwardBatch(x.data(), m, scratch);
    for (int s = 0; s < m; ++s) {
        std::vector<float> row(x.begin() + static_cast<size_t>(s) * in,
                               x.begin() + static_cast<size_t>(s + 1) * in);
        std::vector<float> want = net.forward(row);
        EXPECT_EQ(firstBitMismatch(want.data(),
                                   y + static_cast<size_t>(s) * out, out),
                  -1)
            << what << " m=" << m << " sample=" << s;
    }
}

TEST(PerfPaths, MlpForwardBatchMatchesScalarAtQShapes)
{
    Rng rng(606);
    for (const auto &dims : kQShapes) {
        Mlp net(dims, rng);
        for (int m : kBatchSizes) {
            std::vector<float> x = randomVec(rng, dims.front() * m);
            expectBatchMatchesScalar(net, x, m,
                                     "in=" + std::to_string(dims.front()));
        }
    }
}

TEST(PerfPaths, LinearBackwardBatchMatchesScalarExactly)
{
    // Odd shapes exercise the 32-, 8- and 1-wide tails; zeros in dy
    // exercise the skipped (sample, output) pairs.
    Rng rng(707);
    for (auto [in, out] : {std::pair<int, int>{1, 1},
                           {3, 5},
                           {22, 34},
                           {35, 38},
                           {40, 64},
                           {64, 70}}) {
        for (int m : kBatchSizes) {
            Rng init_a(in * 1000 + out), init_b(in * 1000 + out);
            Linear scalar(in, out, init_a);
            Linear batched(in, out, init_b);
            std::vector<float> x = randomVec(rng, in * m);
            std::vector<float> dy = randomVec(rng, out * m);
            for (size_t i = 0; i < dy.size(); i += 3)
                dy[i] = 0.0f;
            std::vector<float> dx_want(static_cast<size_t>(in) * m);
            for (int s = 0; s < m; ++s) {
                scalar.backwardInto(dy.data() + static_cast<size_t>(s) * out,
                                    x.data() + static_cast<size_t>(s) * in,
                                    dx_want.data() +
                                        static_cast<size_t>(s) * in);
            }
            std::vector<float> dx_got(dx_want.size(), -7.0f);
            MlpScratch scratch;
            batched.backwardBatch(dy.data(), x.data(), m, dx_got.data(),
                                  scratch);
            EXPECT_EQ(firstBitMismatch(dx_want, dx_got), -1)
                << "dx in=" << in << " out=" << out << " m=" << m;
            for (int p = 0; p < 2; ++p) {
                EXPECT_EQ(firstBitMismatch(scalar.params()[p]->grad,
                                           batched.params()[p]->grad),
                          -1)
                    << "param " << p << " in=" << in << " out=" << out
                    << " m=" << m;
            }
        }
    }
}

TEST(PerfPaths, AccumulateGradBatchStepMatchesScalarAtQShapes)
{
    // m scalar accumulateGrad() calls then step() versus one
    // accumulateGradBatch() then step(): same loss, and the same
    // values and AdaDelta state afterwards. Two rounds, so the second
    // batch runs on weights the first step changed (the packed copy
    // must have been refreshed).
    Rng rng(808);
    int seed = 1;
    for (const auto &dims : kQShapes) {
        for (int m : kBatchSizes) {
            Rng init_a(seed), init_b(seed);
            ++seed;
            Mlp scalar(dims, init_a);
            Mlp batched(dims, init_b);
            MlpScratch scratch;
            for (int round = 0; round < 2; ++round) {
                std::vector<float> x = randomVec(rng, dims.front() * m);
                std::vector<int> actions(m);
                std::vector<float> targets(m);
                for (int s = 0; s < m; ++s) {
                    actions[s] = static_cast<int>(rng.index(dims.back()));
                    targets[s] = static_cast<float>(rng.uniform(-1.0, 1.0));
                }
                scalar.zeroGrad();
                batched.zeroGrad();
                double loss_want = 0.0;
                for (int s = 0; s < m; ++s) {
                    std::vector<float> row(
                        x.begin() + static_cast<size_t>(s) * dims.front(),
                        x.begin() +
                            static_cast<size_t>(s + 1) * dims.front());
                    loss_want +=
                        scalar.accumulateGrad(row, actions[s], targets[s]);
                }
                double loss_got = batched.accumulateGradBatch(
                    x.data(), m, actions.data(), targets.data(), scratch);
                EXPECT_EQ(loss_want, loss_got)
                    << "in=" << dims.front() << " m=" << m
                    << " round=" << round;
                scalar.step();
                batched.step();
                EXPECT_EQ(firstBitMismatch(scalar.checkpointState(),
                                           batched.checkpointState()),
                          -1)
                    << "in=" << dims.front() << " m=" << m
                    << " round=" << round;
            }
            std::vector<float> probe = randomVec(rng, dims.front() * m);
            expectBatchMatchesScalar(batched, probe, m, "after step");
        }
    }
}

TEST(PerfPaths, PackedWeightsFollowRestore)
{
    // Train a network so its values differ from any fresh init, then
    // restore them into a fresh network. Batched forwards read the
    // packed copy, so they only agree with the trained network's
    // scalar forward if the restore refreshed it.
    Rng rng(909);
    for (const auto &dims : kQShapes) {
        Mlp trained(dims, rng);
        MlpScratch scratch;
        const int m = 20;
        std::vector<float> x = randomVec(rng, dims.front() * m);
        std::vector<int> actions(m);
        std::vector<float> targets(m, 0.5f);
        for (int s = 0; s < m; ++s)
            actions[s] = s % dims.back();
        for (int round = 0; round < 3; ++round) {
            trained.zeroGrad();
            trained.accumulateGradBatch(x.data(), m, actions.data(),
                                        targets.data(), scratch);
            trained.step();
        }
        const float *y = trained.forwardBatch(x.data(), m, scratch);
        std::vector<float> want(y, y + static_cast<size_t>(m) * dims.back());

        Mlp restored(dims, rng);
        ASSERT_TRUE(restored.restoreCheckpointState(trained.checkpointState()));
        MlpScratch own;
        const float *got = restored.forwardBatch(x.data(), m, own);
        EXPECT_EQ(firstBitMismatch(want.data(), got, want.size()), -1)
            << "in=" << dims.front() << " restore";
        expectBatchMatchesScalar(restored, x, m, "restore");
    }
}

/** Bitwise RngState equality (the spare compared by its bits). */
void
expectSameState(const RngState &a, const RngState &b, const std::string &what)
{
    for (int w = 0; w < 4; ++w)
        EXPECT_EQ(a.s[w], b.s[w]) << what;
    EXPECT_EQ(a.haveSpare, b.haveSpare) << what;
    EXPECT_EQ(std::memcmp(&a.spare, &b.spare, sizeof a.spare), 0) << what;
}

/** `got` equals `want`: values and optimizer state, packed copy (through
 *  the batched forward) and the scalar/batched agreement. */
void
expectSameNet(const Mlp &got, const Mlp &want, const std::vector<float> &x,
              int m, const std::string &what)
{
    EXPECT_EQ(firstBitMismatch(got.checkpointState(), want.checkpointState()),
              -1)
        << what;
    MlpScratch a, b;
    const float *yGot = got.forwardBatch(x.data(), m, a);
    const float *yWant = want.forwardBatch(x.data(), m, b);
    EXPECT_EQ(firstBitMismatch(yGot, yWant,
                               static_cast<size_t>(m) * want.outputDim()),
              -1)
        << what;
    expectBatchMatchesScalar(got, x, m, what);
}

TEST(PerfPaths, InitMemoMatchesFreshInit)
{
    // The memo answers a repeated (dims, full state) pair with a copy
    // of the first init and the state that init left behind; a state
    // differing only in the banked spare's bits, or one evicted from
    // the bounded memo, is drawn afresh.
    const int m = 5;
    for (const auto &dims : kQShapes) {
        for (bool spare : {false, true}) {
            const std::string what = "in=" + std::to_string(dims.front()) +
                                     (spare ? " spare" : "");
            Rng origin(0x1417 + dims.front() * 2 + spare);
            if (spare)
                origin.normal();
            ASSERT_EQ(origin.state().haveSpare, spare);
            Rng fresh = origin;
            const Mlp want(dims, fresh);
            Rng probe(7);
            const std::vector<float> x = randomVec(probe, dims.front() * m);

            bool reused = true;
            Rng miss = origin;
            const Mlp first = initMlpMemoized(dims, miss, &reused);
            EXPECT_FALSE(reused) << what;
            expectSameNet(first, want, x, m, what + " miss");
            expectSameState(miss.state(), fresh.state(), what + " miss");

            Rng hit = origin;
            const Mlp second = initMlpMemoized(dims, hit, &reused);
            EXPECT_TRUE(reused) << what;
            expectSameNet(second, want, x, m, what + " hit");
            expectSameState(hit.state(), fresh.state(), what + " hit");
            EXPECT_EQ(hit.next(), Rng(fresh).next()) << what;

            if (spare) {
                RngState other = origin.state();
                other.spare = std::nextafter(other.spare, 1e9);
                Rng a, b;
                a.setState(other);
                b.setState(other);
                const Mlp wantOther(dims, a);
                const Mlp got = initMlpMemoized(dims, b, &reused);
                EXPECT_FALSE(reused) << what << " other spare";
                expectSameNet(got, wantOther, x, m, what + " other spare");
                expectSameState(b.state(), a.state(), what + " other spare");
            }
        }
    }
    // Bounded: after enough distinct inits the oldest entry is gone.
    const std::vector<int> dims = kQShapes.back();
    Rng origin(0xb0b);
    Rng first = origin;
    bool reused = true;
    initMlpMemoized(dims, first, &reused);
    EXPECT_FALSE(reused);
    for (uint64_t seed = 1; seed <= 64; ++seed) {
        Rng other(0xb0b0000 + seed);
        initMlpMemoized(dims, other);
    }
    Rng again = origin;
    initMlpMemoized(dims, again, &reused);
    EXPECT_FALSE(reused);
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

/**
 * Every anchor the Section 6.6 deployment tunes: the heavy (conv and
 * dense) nodes of YOLO-v1 and OverFeat, lowered exactly as tuneDag
 * lowers them. The mini-graphs are returned so the anchors stay alive.
 */
std::vector<MiniGraph>
sec66AnchorGraphs()
{
    std::vector<MiniGraph> out;
    for (const Network &net : {yoloV1(), overFeat()}) {
        const graph::ComputeDag dag = graph::dagFromNetwork(net);
        for (size_t id = 0; id < dag.nodes.size(); ++id) {
            if (dag.nodes[id].isHeavy())
                out.emplace_back(
                    graph::lowerAnchor(dag, static_cast<int>(id)).output);
        }
    }
    return out;
}

/** The string key the split index used before it became a search. */
std::string
factorKey(const std::vector<int64_t> &factors)
{
    std::ostringstream oss;
    for (int64_t f : factors)
        oss << f << ",";
    return oss.str();
}

/**
 * Check one split sub-space against a string-keyed reference index:
 * indexOf of every entry, every move (same direction decoding and
 * smallest-prime step as SplitSubSpace::move), indexOfTrivial, and -1
 * for tuples the space lacks.
 */
void
checkSplitAgainstOracle(const SplitSubSpace &split, int64_t extent,
                        bool pow2)
{
    const int parts = split.parts();
    std::unordered_map<std::string, int64_t> ref;
    for (int64_t i = 0; i < split.size(); ++i)
        ref.emplace(factorKey(split.entry(i)), i);
    ASSERT_EQ(static_cast<int64_t>(ref.size()), split.size());
    auto refIndex = [&](const std::vector<int64_t> &f) {
        auto it = ref.find(factorKey(f));
        return it == ref.end() ? int64_t{-1} : it->second;
    };
    const std::string where = split.name() + " extent=" +
                              std::to_string(extent) + " parts=" +
                              std::to_string(parts) +
                              (pow2 ? " pow2" : "");

    for (int64_t idx = 0; idx < split.size(); ++idx) {
        const std::vector<int64_t> &f = split.entry(idx);
        ASSERT_EQ(split.indexOf(f), idx) << where;
        for (int dir = 0; dir < split.numDirections(); ++dir) {
            int i = dir / (parts - 1);
            int j = dir % (parts - 1);
            if (j >= i)
                ++j;
            int64_t want = -1;
            if (f[j] != 1) {
                int64_t t = 2;
                while (f[j] % t != 0)
                    ++t;
                std::vector<int64_t> g = f;
                g[i] *= t;
                g[j] /= t;
                want = refIndex(g);
            }
            ASSERT_EQ(split.move(idx, dir), want)
                << where << " idx=" << idx << " dir=" << dir;
        }
        // Wrong length: one part more and one part fewer.
        std::vector<int64_t> longer = f;
        longer.push_back(1);
        EXPECT_EQ(split.indexOf(longer), -1) << where;
        std::vector<int64_t> shorter(f.begin(), f.end() - 1);
        EXPECT_EQ(split.indexOf(shorter), -1) << where;
    }
    for (int part = 0; part < parts; ++part) {
        std::vector<int64_t> trivial(parts, 1);
        trivial[part] = extent;
        const int64_t want = refIndex(trivial);
        EXPECT_EQ(split.indexOfTrivial(part), want < 0 ? 0 : want)
            << where << " part=" << part;
    }
    // Non-divisors of the extent are never entries.
    std::vector<int64_t> nondiv(parts, 1);
    nondiv[0] = extent + 1;
    EXPECT_EQ(split.indexOf(nondiv), -1) << where;
    nondiv[0] = 1;
    nondiv[parts - 1] = 2 * extent;
    EXPECT_EQ(split.indexOf(nondiv), -1) << where;
    EXPECT_EQ(split.indexOf({}), -1) << where;
    // Every factorization is found exactly when the space kept it.
    int64_t kept = 0;
    for (const auto &f : factorizations(extent, parts)) {
        const int64_t want = refIndex(f);
        EXPECT_EQ(split.indexOf(f), want) << where;
        kept += want >= 0;
    }
    EXPECT_EQ(kept, split.size()) << where;
}

TEST(PerfPaths, SplitIndexMatchesStringKeyOracle)
{
    const std::vector<Target> targets = {Target::forGpu(v100()),
                                         Target::forCpu(xeonE5())};
    // Identical (extent, parts, pow2) sub-spaces are checked once.
    std::set<std::tuple<int64_t, int, bool>> seen;
    int pruned = 0;
    for (const MiniGraph &g : sec66AnchorGraphs()) {
        const Operation anchor = anchorOp(g);
        const auto *op = static_cast<const ComputeOp *>(anchor.get());
        for (const Target &target : targets) {
            for (bool pow2 : {false, true}) {
                SpaceOptions options;
                options.templateRestricted = pow2;
                const ScheduleSpace space =
                    buildSpace(anchor, target, options);
                for (int s = 0; s < space.numSubSpaces(); ++s) {
                    const auto *split = dynamic_cast<const SplitSubSpace *>(
                        &space.sub(s));
                    if (!split)
                        continue;
                    const auto &axes = split->role() ==
                                               KnobRole::SpatialSplit
                                           ? op->axis()
                                           : op->reduceAxis();
                    const int64_t extent = axes[split->axis()]->extent;
                    if (!seen.emplace(extent, split->parts(), pow2).second)
                        continue;
                    pruned += static_cast<int64_t>(
                                  factorizations(extent, split->parts())
                                      .size()) != split->size();
                    checkSplitAgainstOracle(*split, extent, pow2);
                }
            }
        }
    }
    EXPECT_GT(seen.size(), 10u);
    EXPECT_GT(pruned, 0); // the pow2 spaces really prune tuples
}

TEST(PerfPaths, FillNormalMatchesScalarLoop)
{
    const double scale = std::sqrt(2.0 / 40.0);
    for (size_t n : {0, 1, 2, 3, 127, 128, 129, 257, 15232}) {
        for (bool spare : {false, true}) {
            for (auto [mean, stddev] :
                 {std::pair<double, double>{0.0, scale}, {0.5, 3.0}}) {
                Rng batched(0xfeed + n), scalar(0xfeed + n);
                if (spare) {
                    batched.normal();
                    scalar.normal();
                    ASSERT_TRUE(batched.state().haveSpare);
                }
                std::vector<float> got(n + 1, -9.0f);
                batched.fillNormal(got.data(), n, mean, stddev);
                for (size_t i = 0; i < n; ++i) {
                    const float want =
                        static_cast<float>(scalar.normal(mean, stddev));
                    ASSERT_EQ(std::memcmp(&got[i], &want, sizeof want), 0)
                        << "n=" << n << " spare=" << spare << " i=" << i;
                }
                EXPECT_EQ(got[n], -9.0f) << "wrote past n=" << n;
                const RngState a = batched.state(), b = scalar.state();
                for (int w = 0; w < 4; ++w)
                    EXPECT_EQ(a.s[w], b.s[w]) << "n=" << n;
                EXPECT_EQ(a.haveSpare, b.haveSpare) << "n=" << n;
                EXPECT_EQ(std::memcmp(&a.spare, &b.spare, sizeof a.spare), 0)
                    << "n=" << n << " spare=" << spare;
            }
        }
    }
}

TEST(PerfPaths, ComputeOpAccessesMatchVisitExpr)
{
    // The Section 6.6 anchors access each tensor once; add a body that
    // reads one tensor three times, once inside another access's index.
    Tensor x = placeholder("X", {16});
    Tensor idx = placeholder("Idx", {8});
    std::vector<MiniGraph> graphs = sec66AnchorGraphs();
    auto body = [&](const std::vector<Expr> &i) {
        return add(mul(x({i[0]}), x({add(i[0], intImm(8))})),
                   idx({x({i[0]})}));
    };
    graphs.emplace_back(compute("repeat", {8}, body));
    int ops = 0;
    for (const MiniGraph &g : graphs) {
        for (const Operation &node : g.computeOps()) {
            const auto *op = static_cast<const ComputeOp *>(node.get());
            std::vector<const ExprNode *> want;
            visitExpr(op->body(), [&](const ExprNode &n) {
                if (n.kind == ExprKind::Access)
                    want.push_back(&n);
            });
            EXPECT_FALSE(want.empty()) << op->name();
            EXPECT_EQ(op->accesses(), want) << op->name();
            ++ops;
        }
    }
    EXPECT_GT(ops, 35);
    EXPECT_EQ(graphs.back().root().op()->inputs().size(), 2u);
}

} // namespace
} // namespace ft
