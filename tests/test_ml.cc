/**
 * @file
 * Tests for the gradient-boosted-trees cost model: the per-run GBT, the
 * rank-loss objective, hexfloat serialization, and the persistent
 * service-wide CostModel built on top of them.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>

#include "dnn/models.h"
#include "explore/tuner.h"
#include "ml/costmodel.h"
#include "ml/features.h"
#include "ml/gbt.h"
#include "ops/ops.h"
#include "space/builder.h"
#include "support/journal.h"
#include "support/rng.h"

namespace ft {
namespace {

double
mse(const GbtModel &model, const std::vector<std::vector<double>> &x,
    const std::vector<double> &y)
{
    double s = 0;
    for (size_t i = 0; i < x.size(); ++i) {
        double d = model.predict(x[i]) - y[i];
        s += d * d;
    }
    return s / static_cast<double>(x.size());
}

TEST(Gbt, UntrainedPredictsZero)
{
    GbtModel model;
    EXPECT_FALSE(model.trained());
    EXPECT_DOUBLE_EQ(model.predict({1.0, 2.0}), 0.0);
}

TEST(Gbt, FitsConstantExactly)
{
    GbtModel model;
    Rng rng(1);
    std::vector<std::vector<double>> x{{0}, {1}, {2}, {3}};
    std::vector<double> y{7, 7, 7, 7};
    model.fit(x, y, {}, rng);
    EXPECT_TRUE(model.trained());
    EXPECT_NEAR(model.predict({5}), 7.0, 1e-9);
}

TEST(Gbt, ReducesErrorOnStepFunction)
{
    GbtModel model;
    Rng rng(2);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 100; ++i) {
        double v = i / 100.0;
        x.push_back({v});
        y.push_back(v < 0.5 ? 1.0 : 3.0);
    }
    model.fit(x, y, {}, rng);
    EXPECT_LT(mse(model, x, y), 0.1);
    EXPECT_LT(model.predict({0.1}), 2.0);
    EXPECT_GT(model.predict({0.9}), 2.0);
}

TEST(Gbt, LearnsAdditiveTwoFeatureFunction)
{
    GbtModel model;
    Rng rng(3);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    Rng data(4);
    for (int i = 0; i < 300; ++i) {
        double a = data.uniform(), b = data.uniform();
        x.push_back({a, b});
        y.push_back(2.0 * a - 3.0 * b);
    }
    GbtOptions opt;
    opt.trees = 80;
    model.fit(x, y, opt, rng);
    EXPECT_LT(mse(model, x, y), 0.15);
}

TEST(Gbt, RankingQualityOnSyntheticCostSurface)
{
    // What AutoTVM actually needs: good ordering, not exact regression.
    GbtModel model;
    Rng rng(5);
    Rng data(6);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    auto cost = [](double a, double b) {
        // Peak at (0.5, 0.25), non-convex elsewhere.
        return std::exp(-8 * ((a - 0.5) * (a - 0.5) +
                              (b - 0.25) * (b - 0.25)));
    };
    for (int i = 0; i < 200; ++i) {
        double a = data.uniform(), b = data.uniform();
        x.push_back({a, b});
        y.push_back(cost(a, b));
    }
    GbtOptions opt;
    opt.trees = 60;
    model.fit(x, y, opt, rng);

    // Count concordant pairs on fresh data.
    int concordant = 0, total = 0;
    for (int i = 0; i < 100; ++i) {
        double a1 = data.uniform(), b1 = data.uniform();
        double a2 = data.uniform(), b2 = data.uniform();
        double t1 = cost(a1, b1), t2 = cost(a2, b2);
        if (std::fabs(t1 - t2) < 0.05)
            continue;
        double p1 = model.predict({a1, b1}), p2 = model.predict({a2, b2});
        ++total;
        concordant += (t1 > t2) == (p1 > p2);
    }
    ASSERT_GT(total, 20);
    EXPECT_GT(static_cast<double>(concordant) / total, 0.7);
}

TEST(Gbt, RefitReplacesModel)
{
    GbtModel model;
    Rng rng(7);
    model.fit({{0.0}, {1.0}}, {0.0, 0.0}, {}, rng);
    EXPECT_NEAR(model.predict({0.5}), 0.0, 1e-9);
    model.fit({{0.0}, {1.0}}, {10.0, 10.0}, {}, rng);
    EXPECT_NEAR(model.predict({0.5}), 10.0, 1e-9);
}

TEST(Gbt, HandlesEmptyFit)
{
    GbtModel model;
    Rng rng(8);
    model.fit({}, {}, {}, rng);
    EXPECT_FALSE(model.trained());
}

TEST(Gbt, ConstantFeatureIsNeverSplitOn)
{
    // Regression test for the zero-variance split-search skip: column 0
    // is constant, so no tree may branch on it — predictions must be
    // invariant to its value — while column 1 still carries the signal.
    GbtModel model;
    Rng rng(9);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 100; ++i) {
        double v = i / 100.0;
        x.push_back({42.0, v});
        y.push_back(v < 0.5 ? 1.0 : 3.0);
    }
    model.fit(x, y, {}, rng);
    EXPECT_LT(mse(model, x, y), 0.1);
    EXPECT_EQ(model.predict({42.0, 0.9}), model.predict({-1e9, 0.9}));
    EXPECT_EQ(model.predict({42.0, 0.1}), model.predict({1e9, 0.1}));
}

TEST(Gbt, AllConstantFeaturesFitToLabelMean)
{
    GbtModel model;
    Rng rng(10);
    std::vector<std::vector<double>> x{{1.0}, {1.0}, {1.0}, {1.0}};
    std::vector<double> y{2.0, 4.0, 6.0, 8.0};
    model.fit(x, y, {}, rng);
    EXPECT_TRUE(model.trained());
    EXPECT_NEAR(model.predict({1.0}), 5.0, 1e-9);
    EXPECT_NEAR(model.predict({77.0}), 5.0, 1e-9);
}

TEST(Gbt, FitRankOrdersWithinGroups)
{
    // Two workload groups whose label scales differ by 100x: the
    // pairwise objective only compares within a group, so the model
    // must still order both groups' members correctly.
    GbtModel model;
    Rng rng(11);
    Rng data(12);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    std::vector<uint64_t> group;
    auto cost = [](double a) { return std::exp(-8.0 * (a - 0.5) * (a - 0.5)); };
    for (int g = 0; g < 2; ++g) {
        for (int i = 0; i < 120; ++i) {
            double a = data.uniform();
            x.push_back({a, static_cast<double>(g)});
            y.push_back(cost(a) * (g == 0 ? 1.0 : 100.0));
            group.push_back(static_cast<uint64_t>(g));
        }
    }
    GbtOptions opt;
    opt.trees = 60;
    model.fitRank(x, y, group, opt, rng);
    ASSERT_TRUE(model.trained());

    int concordant = 0, total = 0;
    for (int i = 0; i < 200; ++i) {
        double a1 = data.uniform(), a2 = data.uniform();
        double g = i % 2;
        if (std::fabs(cost(a1) - cost(a2)) < 0.05)
            continue;
        double p1 = model.predict({a1, g}), p2 = model.predict({a2, g});
        ++total;
        concordant += (cost(a1) > cost(a2)) == (p1 > p2);
    }
    ASSERT_GT(total, 50);
    EXPECT_GT(static_cast<double>(concordant) / total, 0.7);
}

TEST(Gbt, SerializeRoundTripsThroughJournalBitIdentically)
{
    GbtModel model;
    Rng rng(13);
    Rng data(14);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 150; ++i) {
        double a = data.uniform(), b = data.uniform();
        x.push_back({a, b});
        y.push_back(2.0 * a - 3.0 * b);
    }
    model.fit(x, y, {}, rng);

    // Through a CRC32 journal frame, as CostModel persists it.
    const std::string path =
        ::testing::TempDir() + "ft_gbt_roundtrip.j";
    std::remove(path.c_str());
    ASSERT_TRUE(journalAppend(path, "gbttest", model.serialize()));
    JournalContents contents = readJournal(path);
    ASSERT_TRUE(contents.valid);
    ASSERT_EQ(contents.records.size(), 1u);

    GbtModel restored;
    ASSERT_TRUE(restored.deserialize(contents.records[0]));
    ASSERT_TRUE(restored.trained());
    for (int i = 0; i < 50; ++i) {
        std::vector<double> probe{data.uniform() * 4.0 - 2.0,
                                  data.uniform() * 4.0 - 2.0};
        // Bit-identical, not approximately equal: hexfloat
        // serialization must lose nothing.
        EXPECT_EQ(model.predict(probe), restored.predict(probe));
    }
    EXPECT_EQ(model.serialize(), restored.serialize());
    std::remove(path.c_str());
}

TEST(Gbt, DeserializeRejectsMalformedInput)
{
    GbtModel model;
    EXPECT_FALSE(model.deserialize("not a model"));
    EXPECT_FALSE(model.trained());

    // A truncated but otherwise valid prefix must also fail cleanly.
    GbtModel trained;
    Rng rng(15);
    trained.fit({{0.0}, {1.0}, {2.0}}, {0.0, 1.0, 2.0}, {}, rng);
    std::string bytes = trained.serialize();
    EXPECT_FALSE(model.deserialize(
        std::string_view(bytes).substr(0, bytes.size() / 2)));
    EXPECT_FALSE(model.trained());
    EXPECT_DOUBLE_EQ(model.predict({1.0}), 0.0);
}

TEST(Gbt, FixedSeedTrainingIsDeterministic)
{
    // Same data + same seed must produce a byte-identical model. The
    // serialized form is the digest: any nondeterministic tie-break or
    // RNG-order change shows up as a string mismatch.
    Rng data(16);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    std::vector<uint64_t> group;
    for (int i = 0; i < 100; ++i) {
        double a = data.uniform(), b = data.uniform();
        x.push_back({a, b});
        y.push_back(a * b);
        group.push_back(i % 3);
    }
    GbtModel m1, m2;
    Rng r1(0xd5eed), r2(0xd5eed);
    m1.fitRank(x, y, group, {}, r1);
    m2.fitRank(x, y, group, {}, r2);
    EXPECT_EQ(m1.serialize(), m2.serialize());
}

TEST(CostFeatures, FixedDimDeterministicAndFinite)
{
    Tensor a = placeholder("A", {128, 128});
    Tensor b = placeholder("B", {128, 128});
    Tensor out = ops::gemm(a, b);
    Target target = Target::forGpu(v100());
    ScheduleSpace space = buildSpace(out.op(), target);
    Evaluator eval(out.op(), space, target);

    Rng rng(17);
    for (int i = 0; i < 16; ++i) {
        Point p = space.randomPoint(rng);
        std::vector<double> f1, f2;
        eval.costFeaturesFor(p, f1);
        eval.costFeaturesFor(p, f2);
        ASSERT_EQ(static_cast<int>(f1.size()), kCostFeatureDim);
        EXPECT_EQ(f1, f2);
        for (double v : f1)
            EXPECT_TRUE(std::isfinite(v)) << "feature " << v;
    }
}

TEST(CostModel, SyncRefitTrainsOnSchedule)
{
    CostModelOptions options;
    options.syncRefit = true;
    options.refitEvery = 8;
    CostModel model(options);
    EXPECT_FALSE(model.ready());

    Rng data(18);
    for (int i = 0; i < 16; ++i) {
        double a = data.uniform();
        model.recordTrial({a, 1.0 - a}, a * 100.0, /*group=*/7);
    }
    EXPECT_EQ(model.numTrials(), 16u);
    EXPECT_GE(model.refits(), 2u);
    ASSERT_TRUE(model.ready());
    EXPECT_TRUE(std::isfinite(model.predict({0.5, 0.5})));
    // Rank-trained on "higher a is faster": the ordering must hold.
    EXPECT_GT(model.predict({0.9, 0.1}), model.predict({0.1, 0.9}));
}

TEST(CostModel, SlidingWindowBoundsTrials)
{
    CostModelOptions options;
    options.maxTrials = 8;
    options.refitEvery = 1000; // never auto-refit
    CostModel model(options);
    for (int i = 0; i < 30; ++i)
        model.recordTrial({static_cast<double>(i)}, 1.0, 0);
    EXPECT_EQ(model.numTrials(), 8u);
}

TEST(CostModel, PersistsAndReloadsBitIdentically)
{
    const std::string path = ::testing::TempDir() + "ft_costmodel.j";
    std::remove(path.c_str());

    std::vector<std::vector<double>> probes;
    Rng data(19);
    for (int i = 0; i < 20; ++i)
        probes.push_back({data.uniform(), data.uniform()});

    std::vector<double> before;
    {
        CostModelOptions options;
        options.syncRefit = true;
        options.refitEvery = 16;
        options.persistPath = path;
        CostModel model(options);
        for (int i = 0; i < 32; ++i) {
            double a = data.uniform();
            model.recordTrial({a, 1.0 - a}, a * 10.0, 3);
        }
        ASSERT_TRUE(model.ready());
        for (const auto &p : probes)
            before.push_back(model.predict(p));
    } // model destroyed; only the journal survives

    CostModelOptions options;
    options.persistPath = path;
    CostModel reloaded(options);
    ASSERT_TRUE(reloaded.load());
    ASSERT_TRUE(reloaded.ready());
    EXPECT_EQ(reloaded.numTrials(), 32u);
    for (size_t i = 0; i < probes.size(); ++i)
        EXPECT_EQ(reloaded.predict(probes[i]), before[i]);
    std::remove(path.c_str());
}

TEST(CostModel, ExplorerRecordsTrialsAndWarmStartsWhenReady)
{
    Tensor a = placeholder("A", {128, 128});
    Tensor b = placeholder("B", {128, 128});
    Tensor out = ops::gemm(a, b);
    Target target = Target::forGpu(v100());

    CostModelOptions model_options;
    model_options.syncRefit = true;
    model_options.refitEvery = 16;
    CostModel model(model_options);

    // First run trains the model from its own committed trials.
    ScheduleSpace space1 = buildSpace(out.op(), target);
    Evaluator eval1(out.op(), space1, target);
    ExploreOptions options;
    options.trials = 12;
    options.warmupPoints = 6;
    options.seed = 0xd5eed;
    options.costModel = &model;
    ExploreResult first = explore(Method::QMethod, eval1, options);
    EXPECT_GT(first.bestGflops, 0.0);
    EXPECT_GT(model.numTrials(), 0u);
    ASSERT_TRUE(model.ready());

    // Second run takes the warm-start + pruned path end to end.
    ScheduleSpace space2 = buildSpace(out.op(), target);
    Evaluator eval2(out.op(), space2, target);
    options.prunerKeep = 0.5;
    ExploreResult second = explore(Method::QMethod, eval2, options);
    EXPECT_GT(second.bestGflops, 0.0);
    EXPECT_GT(second.trialsUsed, 0);
}

/**
 * YOLO-v1's conv22 (14x14 input, stride 2) and conv23 (7x7, stride 1)
 * share name, output and reduce extents but not their loop nests, so
 * their trials rank in separate groups; conv23 and conv24 are the same
 * operator and share one.
 */
TEST(CostModel, WorkloadKeyFollowsTheStructuralOperator)
{
    std::map<std::string, Tensor> convs;
    for (const FusedOp &op : partitionAndFuse(yoloV1(1)))
        convs[op.name] = op.output;
    ASSERT_TRUE(convs.count("conv22") && convs.count("conv23") &&
                convs.count("conv24"));
    auto keyOf = [](const Tensor &out, const Target &target) {
        MiniGraph graph(out);
        const Operation anchor = anchorOp(graph);
        const ScheduleSpace space = buildSpace(anchor, target);
        return Evaluator(anchor, space, target).workloadKey();
    };
    const Target gpu = Target::forGpu(v100());
    EXPECT_NE(keyOf(convs["conv22"], gpu), keyOf(convs["conv23"], gpu));
    EXPECT_EQ(keyOf(convs["conv23"], gpu), keyOf(convs["conv24"], gpu));
    EXPECT_NE(keyOf(convs["conv23"], gpu),
              keyOf(convs["conv23"], Target::forCpu(xeonE5())));
}

TEST(CostModel, BackgroundRefitTrainsEventually)
{
    CostModelOptions options;
    options.refitEvery = 8;
    CostModel model(options);
    model.startBackgroundRefit();
    Rng data(20);
    for (int i = 0; i < 64; ++i) {
        double a = data.uniform();
        model.recordTrial({a}, a, 1);
    }
    model.refitNow(); // synchronous flush: deterministic end state
    model.stopBackgroundRefit();
    EXPECT_TRUE(model.ready());
    EXPECT_GE(model.refits(), 1u);
}

} // namespace
} // namespace ft
