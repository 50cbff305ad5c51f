#include "ir/operation.h"

#include <cstring>
#include <unordered_set>

#include "support/hash.h"
#include "support/logging.h"

namespace ft {

namespace {

/** Mix a shape into an OpKey hash: rank, then each extent. */
void
mixShape(Fnv1a &hasher, const std::vector<int64_t> &shape)
{
    hasher.word(shape.size());
    for (int64_t d : shape)
        hasher.word(static_cast<uint64_t>(d));
}

/** Kind tags, so a placeholder never keys like a same-shaped constant. */
enum : uint64_t { kPlaceholderTag = 1, kConstantTag, kComputeTag };

} // namespace

const std::vector<int64_t> &
Tensor::shape() const
{
    FT_ASSERT(op_ != nullptr, "shape() of undefined tensor");
    return op_->outputShape();
}

int64_t
Tensor::numel() const
{
    int64_t n = 1;
    for (int64_t d : shape())
        n *= d;
    return n;
}

const std::string &
Tensor::name() const
{
    FT_ASSERT(op_ != nullptr, "name() of undefined tensor");
    return op_->name();
}

Expr
Tensor::operator()(std::vector<Expr> indices) const
{
    FT_ASSERT(op_ != nullptr, "access of undefined tensor");
    FT_ASSERT(indices.size() == shape().size(), "tensor ", name(),
              " accessed with ", indices.size(), " indices but has ",
              shape().size(), " dims");
    return access(op_, std::move(indices));
}

ComputeOp::ComputeOp(std::string name, std::vector<IterVar> axis,
                     std::vector<IterVar> reduce_axis, Expr body)
    : OperationNode(std::move(name), {}),
      axis_(std::move(axis)),
      reduceAxis_(std::move(reduce_axis)),
      body_(std::move(body))
{
    FT_ASSERT(body_ != nullptr, "compute op ", name_, " has no body");
    shape_.reserve(axis_.size());
    for (const auto &iv : axis_) {
        FT_ASSERT(iv->kind == IterKind::Spatial,
                  "output axis of ", name_, " must be spatial");
        shape_.push_back(iv->extent);
    }
    for (const auto &iv : reduceAxis_) {
        FT_ASSERT(iv->kind == IterKind::Reduce,
                  "reduce axis of ", name_, " must have reduce kind");
    }
    Fnv1a hasher;
    hasher.word(kComputeTag);
    for (const auto *axes : {&axis_, &reduceAxis_}) {
        hasher.word(axes->size());
        for (const auto &iv : *axes)
            hasher.word(static_cast<uint64_t>(iv->extent));
    }
    // A Var keys as (0 spatial / 1 reduce, position).
    auto mixVar = [&](const IterVarNode *v) {
        for (uint64_t kind = 0; kind < 2; ++kind) {
            const auto &axes = kind == 0 ? axis_ : reduceAxis_;
            for (size_t pos = 0; pos < axes.size(); ++pos) {
                if (axes[pos].get() == v) {
                    hasher.word(kind);
                    hasher.word(pos);
                    return;
                }
            }
        }
        FT_ASSERT(false, "body of ", name_, " reads ", v->name,
                  ", which is none of its axes");
    };
    // One pre-order walk collects the accesses and keys the body: every
    // kind has a fixed arity except Access, whose index count is mixed,
    // so the hashed sequence determines the tree.
    std::unordered_set<const OperationNode *> seen;
    visitExpr(body_, [&](const ExprNode &n) {
        hasher.word(static_cast<uint64_t>(n.kind));
        switch (n.kind) {
          case ExprKind::IntImm:
            hasher.word(static_cast<uint64_t>(n.intValue));
            return;
          case ExprKind::FloatImm: {
            uint64_t bits;
            std::memcpy(&bits, &n.floatValue, sizeof bits);
            hasher.word(bits);
            return;
          }
          case ExprKind::Var:
            mixVar(n.var.get());
            return;
          case ExprKind::Access:
            break;
          default:
            return;
        }
        hasher.word(n.source->key());
        hasher.word(n.indices.size());
        accesses_.push_back(&n);
        if (seen.insert(n.source.get()).second)
            inputs_.push_back(Tensor(n.source));
    });
    key_ = hasher.value();
}

std::vector<Tensor>
ComputeOp::inputs() const
{
    return inputs_;
}

PlaceholderOp::PlaceholderOp(std::string name, std::vector<int64_t> shape)
    : OperationNode(std::move(name), std::move(shape))
{
    Fnv1a hasher;
    hasher.word(kPlaceholderTag);
    mixShape(hasher, shape_);
    key_ = hasher.value();
}

Tensor
placeholder(std::string name, std::vector<int64_t> shape)
{
    auto op = std::make_shared<PlaceholderOp>(std::move(name),
                                              std::move(shape));
    return op->output();
}

ConstantOp::ConstantOp(std::string name, std::vector<int64_t> shape,
                       std::vector<float> data)
    : OperationNode(std::move(name), std::move(shape)),
      data_(std::move(data))
{
    int64_t n = 1;
    for (int64_t d : shape_)
        n *= d;
    FT_ASSERT(static_cast<int64_t>(data_.size()) == n,
              "constant ", name_, " data size mismatch");
    Fnv1a hasher;
    hasher.word(kConstantTag);
    mixShape(hasher, shape_);
    for (float v : data_) {
        uint32_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        hasher.word(bits);
    }
    key_ = hasher.value();
}

Tensor
constant(std::string name, std::vector<int64_t> shape,
         std::vector<float> data)
{
    auto op = std::make_shared<ConstantOp>(std::move(name),
                                           std::move(shape),
                                           std::move(data));
    return op->output();
}

Tensor
compute(std::string name, std::vector<int64_t> shape,
        const std::function<Expr(const std::vector<Expr> &)> &fn,
        std::vector<IterVar> reduce_axis)
{
    static const char *const axisNames[] = {"i", "j", "k", "l", "m", "n",
                                            "o", "p"};
    std::vector<IterVar> axis;
    std::vector<Expr> vars;
    axis.reserve(shape.size());
    for (size_t d = 0; d < shape.size(); ++d) {
        std::string an = d < std::size(axisNames)
                             ? std::string(axisNames[d])
                             : "ax" + std::to_string(d);
        axis.push_back(makeIterVar(name + "." + an, shape[d]));
        vars.push_back(varRef(axis.back()));
    }
    Expr body = fn(vars);
    auto op = std::make_shared<ComputeOp>(std::move(name), std::move(axis),
                                          std::move(reduce_axis),
                                          std::move(body));
    return op->output();
}

Tensor
pad(const Tensor &t, const std::vector<int64_t> &pads, std::string name)
{
    FT_ASSERT(pads.size() % 2 == 0, "pads must hold (before, after) pairs");
    const size_t npad = pads.size() / 2;
    const auto &shape = t.shape();
    FT_ASSERT(npad <= shape.size(), "more padded dims than tensor dims");
    const size_t first = shape.size() - npad;

    std::vector<int64_t> out_shape = shape;
    for (size_t d = 0; d < npad; ++d)
        out_shape[first + d] += pads[2 * d] + pads[2 * d + 1];

    if (name.empty())
        name = t.name() + ".pad";
    return compute(name, out_shape, [&](const std::vector<Expr> &iv) {
        std::vector<Expr> src(iv.begin(), iv.end());
        Expr cond;
        for (size_t d = 0; d < npad; ++d) {
            int64_t before = pads[2 * d];
            size_t dim = first + d;
            src[dim] = sub(iv[dim], intImm(before));
            Expr in_range = logicalAnd(le(intImm(before), iv[dim]),
                                       lt(iv[dim],
                                          intImm(before + shape[dim])));
            cond = cond ? logicalAnd(cond, in_range) : in_range;
        }
        return select(cond, t(src), floatImm(0.0));
    });
}

Tensor
dilate(const Tensor &t, const std::vector<int64_t> &strides, std::string name)
{
    const auto &shape = t.shape();
    const size_t ndil = strides.size();
    FT_ASSERT(ndil <= shape.size(), "more dilated dims than tensor dims");
    const size_t first = shape.size() - ndil;

    std::vector<int64_t> out_shape = shape;
    for (size_t d = 0; d < ndil; ++d) {
        FT_ASSERT(strides[d] >= 1, "dilate stride must be >= 1");
        out_shape[first + d] = (shape[first + d] - 1) * strides[d] + 1;
    }

    if (name.empty())
        name = t.name() + ".dilate";
    return compute(name, out_shape, [&](const std::vector<Expr> &iv) {
        std::vector<Expr> src(iv.begin(), iv.end());
        Expr cond;
        for (size_t d = 0; d < ndil; ++d) {
            size_t dim = first + d;
            if (strides[d] == 1)
                continue;
            Expr s = intImm(strides[d]);
            src[dim] = floordiv(iv[dim], s);
            Expr aligned = eq(mod(iv[dim], s), intImm(0));
            cond = cond ? logicalAnd(cond, aligned) : aligned;
        }
        Expr val = t(src);
        return cond ? select(cond, val, floatImm(0.0)) : val;
    });
}

} // namespace ft
