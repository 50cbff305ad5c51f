/**
 * @file
 * Tests for the tensor-expression IR: construction, traversal, printing,
 * graph structure, the pad/dilate helper nodes (checked semantically
 * through the reference executor), and the structural OpKey.
 */
#include <gtest/gtest.h>

#include "exec/reference.h"
#include "ir/graph.h"
#include "ir/printer.h"
#include "ops/ops.h"
#include "support/rng.h"

namespace ft {
namespace {

TEST(Expr, ImmediateValues)
{
    Expr i = intImm(42);
    EXPECT_EQ(i->kind, ExprKind::IntImm);
    EXPECT_EQ(i->intValue, 42);
    Expr f = floatImm(1.5);
    EXPECT_EQ(f->kind, ExprKind::FloatImm);
    EXPECT_DOUBLE_EQ(f->floatValue, 1.5);
}

TEST(Expr, CollectVarsDeduplicates)
{
    IterVar i = makeIterVar("i", 8);
    IterVar j = makeIterVar("j", 8);
    Expr e = add(mul(varRef(i), varRef(j)), varRef(i));
    auto vars = collectVars(e);
    EXPECT_EQ(vars.size(), 2u);
}

TEST(Expr, OperatorSugarBuildsNodes)
{
    IterVar i = makeIterVar("i", 4);
    Expr e = varRef(i) + intImm(1);
    EXPECT_EQ(e->kind, ExprKind::Add);
    e = varRef(i) * intImm(3);
    EXPECT_EQ(e->kind, ExprKind::Mul);
}

TEST(Tensor, PlaceholderShape)
{
    Tensor t = placeholder("A", {3, 4, 5});
    EXPECT_EQ(t.ndim(), 3);
    EXPECT_EQ(t.numel(), 60);
    EXPECT_TRUE(t.op()->isPlaceholder());
    EXPECT_EQ(t.name(), "A");
}

TEST(Compute, SimpleElementwise)
{
    Tensor a = placeholder("A", {4, 4});
    Tensor b = compute("B", {4, 4}, [&](const std::vector<Expr> &iv) {
        return a(std::vector<Expr>{iv[0], iv[1]}) * floatImm(2.0);
    });
    const auto *op = static_cast<const ComputeOp *>(b.op().get());
    EXPECT_EQ(op->axis().size(), 2u);
    EXPECT_TRUE(op->reduceAxis().empty());
    ASSERT_EQ(op->inputs().size(), 1u);
    EXPECT_EQ(op->inputs()[0].name(), "A");
}

TEST(Compute, ReduceAxisRecorded)
{
    Tensor a = placeholder("A", {4, 8});
    IterVar k = makeIterVar("k", 8, IterKind::Reduce);
    Tensor s = compute("S", {4},
                       [&](const std::vector<Expr> &iv) {
                           return a({iv[0], varRef(k)});
                       },
                       {k});
    const auto *op = static_cast<const ComputeOp *>(s.op().get());
    ASSERT_EQ(op->reduceAxis().size(), 1u);
    EXPECT_EQ(op->reduceAxis()[0]->extent, 8);
}

TEST(Graph, PostOrderVisitsProducersFirst)
{
    Tensor a = placeholder("A", {4});
    Tensor b = compute("B", {4}, [&](const std::vector<Expr> &iv) {
        return a({iv[0]}) + floatImm(1.0);
    });
    Tensor c = compute("C", {4}, [&](const std::vector<Expr> &iv) {
        return b({iv[0]}) * floatImm(2.0);
    });
    MiniGraph g(c);
    ASSERT_EQ(g.numNodes(), 3);
    EXPECT_EQ(g.postOrder()[0]->name(), "A");
    EXPECT_EQ(g.postOrder()[1]->name(), "B");
    EXPECT_EQ(g.postOrder()[2]->name(), "C");
}

TEST(Graph, SharedInputVisitedOnce)
{
    Tensor a = placeholder("A", {4});
    Tensor b = compute("B", {4}, [&](const std::vector<Expr> &iv) {
        return a({iv[0]}) + a({iv[0]});
    });
    MiniGraph g(b);
    EXPECT_EQ(g.numNodes(), 2);
}

TEST(Graph, ConsumerCount)
{
    Tensor a = placeholder("A", {4});
    Tensor b = compute("B", {4}, [&](const std::vector<Expr> &iv) {
        return a({iv[0]}) + floatImm(1.0);
    });
    Tensor c = compute("C", {4}, [&](const std::vector<Expr> &iv) {
        return a({iv[0]}) + b({iv[0]});
    });
    MiniGraph g(c);
    EXPECT_EQ(g.numConsumers(a.op()), 2);
    EXPECT_EQ(g.numConsumers(b.op()), 1);
    EXPECT_EQ(g.numConsumers(c.op()), 0);
}

TEST(Printer, GemmLikeBody)
{
    Tensor a = placeholder("A", {2, 3});
    IterVar k = makeIterVar("k", 3, IterKind::Reduce);
    Tensor s = compute("S", {2},
                       [&](const std::vector<Expr> &iv) {
                           return a({iv[0], varRef(k)});
                       },
                       {k});
    std::string text = toString(s.op());
    EXPECT_NE(text.find("S["), std::string::npos);
    EXPECT_NE(text.find("sum{"), std::string::npos);
    EXPECT_NE(text.find("A["), std::string::npos);
}

TEST(Pad, ShapeAndZeroBorder)
{
    Tensor a = placeholder("A", {2, 3, 3});
    Tensor p = pad(a, {1, 1, 1, 1});
    EXPECT_EQ(p.shape(), (std::vector<int64_t>{2, 5, 5}));

    Rng rng(1);
    MiniGraph g(p);
    BufferMap buffers = makeRandomInputs(g, rng);
    runGraphReference(g, buffers);
    const Buffer &out = buffers.at(p.op().get());
    const Buffer &in = buffers.at(a.op().get());
    // Borders are zero, interior matches.
    EXPECT_FLOAT_EQ(out.at({0, 0, 0}), 0.0f);
    EXPECT_FLOAT_EQ(out.at({1, 4, 2}), 0.0f);
    EXPECT_FLOAT_EQ(out.at({0, 2, 3}), in.at({0, 1, 2}));
    EXPECT_FLOAT_EQ(out.at({1, 1, 1}), in.at({1, 0, 0}));
}

TEST(Pad, AsymmetricPads)
{
    Tensor a = placeholder("A", {4});
    Tensor p = pad(a, {2, 1});
    EXPECT_EQ(p.shape(), (std::vector<int64_t>{7}));

    Rng rng(2);
    MiniGraph g(p);
    BufferMap buffers = makeRandomInputs(g, rng);
    runGraphReference(g, buffers);
    const Buffer &out = buffers.at(p.op().get());
    const Buffer &in = buffers.at(a.op().get());
    EXPECT_FLOAT_EQ(out.at({0}), 0.0f);
    EXPECT_FLOAT_EQ(out.at({1}), 0.0f);
    EXPECT_FLOAT_EQ(out.at({2}), in.at({0}));
    EXPECT_FLOAT_EQ(out.at({5}), in.at({3}));
    EXPECT_FLOAT_EQ(out.at({6}), 0.0f);
}

TEST(Dilate, InsertsZeros)
{
    Tensor a = placeholder("A", {1, 3});
    Tensor d = dilate(a, {2});
    EXPECT_EQ(d.shape(), (std::vector<int64_t>{1, 5}));

    Rng rng(3);
    MiniGraph g(d);
    BufferMap buffers = makeRandomInputs(g, rng);
    runGraphReference(g, buffers);
    const Buffer &out = buffers.at(d.op().get());
    const Buffer &in = buffers.at(a.op().get());
    EXPECT_FLOAT_EQ(out.at({0, 0}), in.at({0, 0}));
    EXPECT_FLOAT_EQ(out.at({0, 1}), 0.0f);
    EXPECT_FLOAT_EQ(out.at({0, 2}), in.at({0, 1}));
    EXPECT_FLOAT_EQ(out.at({0, 3}), 0.0f);
    EXPECT_FLOAT_EQ(out.at({0, 4}), in.at({0, 2}));
}

TEST(Dilate, StrideOneIsIdentity)
{
    Tensor a = placeholder("A", {2, 3});
    Tensor d = dilate(a, {1});
    EXPECT_EQ(d.shape(), a.shape());

    Rng rng(4);
    MiniGraph g(d);
    BufferMap buffers = makeRandomInputs(g, rng);
    runGraphReference(g, buffers);
    EXPECT_EQ(buffers.at(d.op().get()).data(),
              buffers.at(a.op().get()).data());
}

TEST(Buffer, OffsetRowMajor)
{
    Tensor t = placeholder("T", {2, 3, 4});
    Buffer b(t.op());
    EXPECT_EQ(b.numel(), 24);
    EXPECT_EQ(b.offsetOf({0, 0, 0}), 0);
    EXPECT_EQ(b.offsetOf({0, 0, 3}), 3);
    EXPECT_EQ(b.offsetOf({0, 1, 0}), 4);
    EXPECT_EQ(b.offsetOf({1, 0, 0}), 12);
    EXPECT_EQ(b.offsetOf({1, 2, 3}), 23);
}

TEST(Eval, SelectShortCircuitsOutOfRangeAccess)
{
    Tensor a = placeholder("A", {2});
    Tensor s = compute("S", {4}, [&](const std::vector<Expr> &iv) {
        // Out-of-range reads only occur in the untaken branch.
        return select(lt(iv[0], intImm(2)), a({iv[0]}), floatImm(-1.0));
    });
    Rng rng(5);
    MiniGraph g(s);
    BufferMap buffers = makeRandomInputs(g, rng);
    runGraphReference(g, buffers);
    const Buffer &out = buffers.at(s.op().get());
    EXPECT_FLOAT_EQ(out.at({3}), -1.0f);
}

/** A 2D conv over an (1, 8, hw, hw) input and 3x3 weights. */
OpKey
convKey(int64_t hw, int64_t stride, int64_t padding,
        const std::string &data = "data", const std::string &weight = "w")
{
    ops::ConvParams p;
    p.stride = stride;
    p.padding = padding;
    return ops::conv2d(placeholder(data, {1, 8, hw, hw}),
                       placeholder(weight, {16, 8, 3, 3}), p)
        .op()
        ->key();
}

/** O[i] = sum_k A[coeff * i + k], named after `tag`. */
OpKey
stridedSumKey(int64_t coeff, const std::string &tag)
{
    Tensor a = placeholder(tag + ".A", {64});
    IterVar k = makeIterVar(tag + ".k", 4, IterKind::Reduce);
    return compute(tag, {8},
                   [&](const std::vector<Expr> &iv) {
                       return a({add(mul(iv[0], intImm(coeff)),
                                     varRef(k))});
                   },
                   {k})
        .op()
        ->key();
}

TEST(OpKey, NamesNeverEnterTheKey)
{
    // Separately built, differently named, structurally equal: the pad
    // node is named after its input, the axes after their op.
    EXPECT_EQ(convKey(14, 1, 1), convKey(14, 1, 1, "conv3.relu", "conv4.w"));
    EXPECT_EQ(stridedSumKey(2, "left"), stridedSumKey(2, "right"));
    Tensor a = placeholder("A", {16, 16}), b = placeholder("B", {16, 16});
    Tensor x = placeholder("X", {16, 16}), y = placeholder("Y", {16, 16});
    EXPECT_EQ(ops::gemm(a, b).op()->key(), ops::gemm(x, y).op()->key());
    EXPECT_EQ(a.op()->key(), x.op()->key());
}

TEST(OpKey, StructuralChangesChangeTheKey)
{
    // Every pair below has equal output and reduce extents, so a key of
    // name + extents could not tell them apart.
    const OpKey base = convKey(7, 1, 1);
    EXPECT_NE(base, convKey(14, 2, 1)) << "stride (YOLO-v1 conv22/conv23)";
    EXPECT_NE(base, convKey(9, 1, 0)) << "padding";
    EXPECT_NE(stridedSumKey(2, "s"), stridedSumKey(3, "s"))
        << "one access coefficient";
    EXPECT_NE(placeholder("A", {4, 8}).op()->key(),
              placeholder("A", {8, 4}).op()->key())
        << "placeholder shape";
    Tensor sq = placeholder("S", {8, 8});
    auto copyKey = [&](bool transpose) {
        return compute("copy", {8, 8},
                       [&](const std::vector<Expr> &iv) {
                           return transpose ? sq({iv[1], iv[0]})
                                            : sq({iv[0], iv[1]});
                       })
            .op()
            ->key();
    };
    EXPECT_NE(copyKey(false), copyKey(true)) << "axis positions";
}

} // namespace
} // namespace ft
