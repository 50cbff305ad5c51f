/**
 * @file
 * Tests for the Q-network building blocks: AdaDelta, Linear gradients
 * (finite-difference check), and MLP training on synthetic problems.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "nn/mlp.h"
#include "support/rng.h"

namespace ft {
namespace {

TEST(Param, AdaDeltaStepDescendsGradient)
{
    Param p;
    p.resize(1);
    p.value[0] = 1.0f;
    // Repeated positive gradient must decrease the value.
    float before = p.value[0];
    for (int i = 0; i < 50; ++i) {
        p.grad[0] = 2.0f * p.value[0]; // d/dx of x^2
        p.step();
    }
    EXPECT_LT(std::fabs(p.value[0]), std::fabs(before));
}

TEST(Param, StepClearsGradient)
{
    Param p;
    p.resize(4);
    for (auto &g : p.grad)
        g = 1.0f;
    p.step();
    for (auto g : p.grad)
        EXPECT_FLOAT_EQ(g, 0.0f);
}

TEST(Linear, ForwardComputesAffineMap)
{
    Rng rng(1);
    Linear l(2, 1, rng);
    // Overwrite weights deterministically through training is awkward;
    // instead verify the map is linear: f(ax) - f(0) == a (f(x) - f(0)).
    std::vector<float> zero{0.0f, 0.0f}, x{1.0f, 2.0f}, x2{2.0f, 4.0f};
    float f0 = l.forward(zero)[0];
    float f1 = l.forward(x)[0];
    float f2 = l.forward(x2)[0];
    EXPECT_NEAR(f2 - f0, 2.0f * (f1 - f0), 1e-4);
}

TEST(Linear, BackwardMatchesFiniteDifference)
{
    Rng rng(2);
    Linear l(3, 2, rng);
    std::vector<float> x{0.5f, -1.0f, 2.0f};
    std::vector<float> dy{1.0f, 0.0f}; // dL/dy0 = 1

    std::vector<float> dx = l.backward(dy, x);
    // Finite difference on the input.
    const float h = 1e-3f;
    for (int i = 0; i < 3; ++i) {
        auto xp = x, xm = x;
        xp[i] += h;
        xm[i] -= h;
        float fd = (l.forward(xp)[0] - l.forward(xm)[0]) / (2 * h);
        EXPECT_NEAR(dx[i], fd, 1e-2) << "input " << i;
    }
}

TEST(Mlp, OutputDimsMatch)
{
    Rng rng(3);
    Mlp net({5, 8, 8, 8, 3}, rng);
    EXPECT_EQ(net.inputDim(), 5);
    EXPECT_EQ(net.outputDim(), 3);
    EXPECT_EQ(net.forward({1, 2, 3, 4, 5}).size(), 3u);
}

TEST(Mlp, TrainsSingleOutputToTarget)
{
    Rng rng(4);
    Mlp net({2, 16, 16, 16, 3}, rng);
    std::vector<float> x{0.3f, -0.7f};
    for (int iter = 0; iter < 800; ++iter) {
        net.zeroGrad();
        net.accumulateGrad(x, 1, 5.0f);
        net.step();
    }
    EXPECT_NEAR(net.forward(x)[1], 5.0f, 0.5f);
}

TEST(Mlp, LearnsToRankTwoActions)
{
    // Q(x)[0] should learn value 1 and Q(x)[1] value -1 for the same
    // state; afterwards action 0 must be preferred.
    Rng rng(5);
    Mlp net({3, 16, 16, 16, 2}, rng);
    std::vector<float> x{1.0f, 0.5f, -0.5f};
    for (int iter = 0; iter < 600; ++iter) {
        net.zeroGrad();
        net.accumulateGrad(x, 0, 1.0f);
        net.accumulateGrad(x, 1, -1.0f);
        net.step();
    }
    auto q = net.forward(x);
    EXPECT_GT(q[0], q[1]);
}

TEST(Mlp, ReluBlocksNegativePreactivations)
{
    // A single-sample training loop on a loss reachable only through
    // active units still converges (smoke test that dead units do not
    // break backprop).
    Rng rng(7);
    Mlp net({1, 8, 8, 8, 1}, rng);
    double last_loss = 1e9;
    for (int iter = 0; iter < 600; ++iter) {
        net.zeroGrad();
        last_loss = net.accumulateGrad({1.0f}, 0, 5.0f);
        net.step();
    }
    EXPECT_LT(last_loss, 1.0);
}

} // namespace
} // namespace ft
