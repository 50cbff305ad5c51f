/**
 * @file
 * Tests for the back-end exploration: evaluator caching and clock, SA
 * selection probabilities, and the search methods' behaviour (all methods
 * beat random init; Q-method reaches a target faster than exhaustive
 * P-method on the simulated clock, as in Section 6.5).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "explore/sa.h"
#include "explore/tuner.h"
#include "ops/ops.h"
#include "support/rng.h"

namespace ft {
namespace {

Tensor
tuneGemm()
{
    Tensor a = placeholder("A", {256, 256});
    Tensor b = placeholder("B", {256, 256});
    return ops::gemm(a, b);
}

class EvaluatorTest : public ::testing::Test
{
  protected:
    EvaluatorTest()
        : out_(tuneGemm()),
          target_(Target::forGpu(v100())),
          space_(buildSpace(out_.op(), target_)),
          eval_(out_.op(), space_, target_)
    {}

    Tensor out_;
    Target target_;
    ScheduleSpace space_;
    Evaluator eval_;
};

TEST_F(EvaluatorTest, CachesRepeatEvaluations)
{
    Rng rng(1);
    Point p = space_.randomPoint(rng);
    double first = eval_.evaluate(p);
    int trials = eval_.numTrials();
    double clock = eval_.simulatedSeconds();
    double second = eval_.evaluate(p);
    EXPECT_DOUBLE_EQ(first, second);
    EXPECT_EQ(eval_.numTrials(), trials);
    EXPECT_DOUBLE_EQ(eval_.simulatedSeconds(), clock);
}

TEST_F(EvaluatorTest, ChargesMeasureCostPerNewPoint)
{
    eval_.setMeasureCost(0.5);
    Rng rng(2);
    for (int i = 0; i < 5; ++i)
        eval_.evaluate(space_.randomPoint(rng));
    EXPECT_NEAR(eval_.simulatedSeconds(), 0.5 * eval_.numTrials(), 1e-9);
}

TEST_F(EvaluatorTest, TracksBest)
{
    Rng rng(3);
    double best = 0;
    for (int i = 0; i < 20; ++i)
        best = std::max(best, eval_.evaluate(space_.randomPoint(rng)));
    EXPECT_DOUBLE_EQ(eval_.best(), best);
    EXPECT_DOUBLE_EQ(eval_.evaluate(eval_.bestPoint()), best);
}

TEST_F(EvaluatorTest, CurveIsMonotone)
{
    Rng rng(4);
    for (int i = 0; i < 30; ++i)
        eval_.evaluate(space_.randomPoint(rng));
    const auto &curve = eval_.curve();
    ASSERT_EQ(curve.size(), 30u);
    for (size_t i = 1; i < curve.size(); ++i) {
        EXPECT_GE(curve[i].first, curve[i - 1].first);   // time advances
        EXPECT_GE(curve[i].second, curve[i - 1].second); // best grows
    }
}

TEST(SaChooser, WeightFollowsPaperFormula)
{
    SaChooser chooser(2.0);
    // exp(-gamma * (E* - Ep) / E*)
    EXPECT_NEAR(chooser.weight(100.0, 100.0), 1.0, 1e-12);
    EXPECT_NEAR(chooser.weight(50.0, 100.0), std::exp(-1.0), 1e-12);
    EXPECT_NEAR(chooser.weight(0.0, 100.0), std::exp(-2.0), 1e-12);
}

TEST_F(EvaluatorTest, SaPrefersBetterPoints)
{
    Rng rng(5);
    for (int i = 0; i < 40; ++i)
        eval_.evaluate(space_.randomPoint(rng));

    SaChooser chooser(2.0);
    const double best = eval_.best();
    // Fraction of H that is "good" (upper half of the value range).
    int good_in_h = 0;
    for (const auto &e : eval_.history())
        good_in_h += e.gflops >= 0.5 * best;
    const double uniform_frac =
        static_cast<double>(good_in_h) / eval_.history().size();

    int good = 0;
    const int draws = 400;
    for (int i = 0; i < draws; ++i) {
        const Point &p = chooser.choose(eval_, rng);
        if (eval_.evaluate(p) >= 0.5 * best)
            ++good;
    }
    // SA must select good points clearly more often than uniform choice.
    EXPECT_GT(static_cast<double>(good) / draws, 1.5 * uniform_frac);
}

TEST(Explore, QMethodImprovesOverWarmup)
{
    Tensor out = tuneGemm();
    Target target = Target::forGpu(v100());
    ScheduleSpace space = buildSpace(out.op(), target);

    // Baseline: only the warmup randoms.
    Evaluator warm(out.op(), space, target);
    ExploreOptions warm_opts;
    warm_opts.trials = 8;
    explore(Method::Random, warm, warm_opts);

    Evaluator eval(out.op(), space, target);
    ExploreOptions opts;
    opts.trials = 60;
    opts.seed = warm_opts.seed;
    ExploreResult r = explore(Method::QMethod, eval, opts);
    EXPECT_GT(r.bestGflops, warm.best());
    EXPECT_GT(r.trialsUsed, 8);
}

TEST(Explore, PMethodEvaluatesNeighborhoods)
{
    Tensor out = tuneGemm();
    Target target = Target::forGpu(v100());
    ScheduleSpace space = buildSpace(out.op(), target);
    Evaluator eval(out.op(), space, target);
    ExploreOptions opts;
    opts.trials = 3;
    opts.startingPoints = 1;
    ExploreResult r = explore(Method::PMethod, eval, opts);
    // Each step measures up to numDirections neighbors.
    EXPECT_GT(r.trialsUsed, 20);
    EXPECT_GT(r.bestGflops, kInvalidGflops);
}

TEST(Explore, TargetGflopsStopsEarly)
{
    Tensor out = tuneGemm();
    Target target = Target::forGpu(v100());
    ScheduleSpace space = buildSpace(out.op(), target);
    Evaluator eval(out.op(), space, target);
    ExploreOptions opts;
    opts.trials = 1000;
    opts.targetGflops = 1.0; // trivially reachable
    ExploreResult r = explore(Method::QMethod, eval, opts);
    EXPECT_LT(r.trialsUsed, 100);
}

TEST(Explore, AutoTvmRunsOnTemplateSpace)
{
    Tensor out = tuneGemm();
    Target target = Target::forGpu(v100());
    SpaceOptions so;
    so.templateRestricted = true;
    ScheduleSpace space = buildSpace(out.op(), target, so);
    Evaluator eval(out.op(), space, target);
    ExploreOptions opts;
    opts.trials = 48;
    ExploreResult r = explore(Method::AutoTvm, eval, opts);
    EXPECT_GE(r.trialsUsed, 40);
    EXPECT_GT(r.bestGflops, kInvalidGflops);
    EXPECT_GT(r.simSeconds, 0.0);
}

TEST(Explore, DeterministicForFixedSeed)
{
    Tensor out = tuneGemm();
    Target target = Target::forGpu(v100());
    ScheduleSpace space = buildSpace(out.op(), target);
    ExploreOptions opts;
    opts.trials = 25;
    Evaluator e1(out.op(), space, target);
    Evaluator e2(out.op(), space, target);
    ExploreResult r1 = explore(Method::QMethod, e1, opts);
    ExploreResult r2 = explore(Method::QMethod, e2, opts);
    EXPECT_DOUBLE_EQ(r1.bestGflops, r2.bestGflops);
    EXPECT_EQ(r1.trialsUsed, r2.trialsUsed);
}

TEST(Tuner, EndToEndGpuGemm)
{
    TuneOptions opts;
    opts.explore.trials = 40;
    TuneReport report = tune(tuneGemm(), Target::forGpu(v100()), opts);
    EXPECT_GT(report.gflops, 100.0); // far better than naive
    EXPECT_GT(report.spaceSize, 1e6);
    EXPECT_EQ(report.device, "V100");
    EXPECT_FALSE(report.curve.empty());
    EXPECT_GT(report.kernelSeconds, 0.0);
}

TEST(Tuner, EndToEndCpuAndFpga)
{
    TuneOptions opts;
    opts.explore.trials = 30;
    TuneReport cpu = tune(tuneGemm(), Target::forCpu(xeonE5()), opts);
    EXPECT_GT(cpu.gflops, 5.0);
    TuneReport fpga = tune(tuneGemm(), Target::forFpga(vu9p()), opts);
    EXPECT_GT(fpga.gflops, 1.0);
}

TEST(Tuner, MethodNamesAreStable)
{
    EXPECT_EQ(methodName(Method::QMethod), "Q-method");
    EXPECT_EQ(methodName(Method::PMethod), "P-method");
    EXPECT_EQ(methodName(Method::AutoTvm), "AutoTVM");
    EXPECT_EQ(methodName(Method::Random), "random");
}

} // namespace
} // namespace ft
