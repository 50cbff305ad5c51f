/**
 * @file
 * Operations (mini-graph nodes) and the Tensor handle.
 *
 * Following the paper's model (Section 4.1), a tensor computation is a
 * "mini-graph" whose nodes are nested-loop computations and whose edges are
 * tensors. A node computes
 *     O[i1, ..., iM] = F(I1, ..., IN)
 * with spatial loops (output axes) and reduce loops.
 */
#ifndef FLEXTENSOR_IR_OPERATION_H
#define FLEXTENSOR_IR_OPERATION_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/expr.h"

namespace ft {

class OperationNode;
using Operation = std::shared_ptr<OperationNode>;
class IndexAnalysis; // analysis/index_analysis.h

/**
 * Structural key of the mini-graph an operation roots: a 64-bit FNV-1a
 * hash of everything the tuner sees and nothing it ignores. A compute
 * node contributes its kind tag, its axis and reduce extents and its
 * body tree, with each Var hashed by its axis/reduce position and each
 * Access by its index expressions and its source's key (so a pad
 * producer is covered). A placeholder contributes only its shape, a
 * constant its shape and data bits. Tensor, placeholder and axis names
 * never enter the key: two separately built, structurally equal
 * operators get equal keys. Computed once, at construction.
 */
using OpKey = uint64_t;

/**
 * A tensor handle: the output of an operation.
 *
 * Tensors are pure edges; all state lives in the producing operation. The
 * handle is copyable and cheap.
 */
class Tensor
{
  public:
    Tensor() = default;
    explicit Tensor(Operation op) : op_(std::move(op)) {}

    /** Producing operation (placeholder or compute). */
    const Operation &op() const { return op_; }

    /** Output shape (one extent per spatial axis). */
    const std::vector<int64_t> &shape() const;

    /** Number of dimensions. */
    int ndim() const { return static_cast<int>(shape().size()); }

    /** Total number of elements. */
    int64_t numel() const;

    /** Name of the producing operation. */
    const std::string &name() const;

    /** Build an access expression T[indices]. */
    Expr operator()(std::vector<Expr> indices) const;

    bool defined() const { return op_ != nullptr; }

  private:
    Operation op_;
};

/** Base class for mini-graph nodes. */
class OperationNode : public std::enable_shared_from_this<OperationNode>
{
  public:
    virtual ~OperationNode() = default;

    /** Node name (used in printouts and encodings). */
    const std::string &name() const { return name_; }

    /** Shape of the produced tensor. */
    const std::vector<int64_t> &outputShape() const { return shape_; }

    /** Input tensors consumed by this node. */
    virtual std::vector<Tensor> inputs() const = 0;

    /** True for graph leaves (externally provided data). */
    virtual bool isPlaceholder() const = 0;

    /** True for compile-time constant tensors (weights of transforms). */
    virtual bool isConstant() const { return false; }

    /** The tensor produced by this node. */
    Tensor output() { return Tensor(shared_from_this()); }

    /** Structural key of the mini-graph rooted here (see OpKey). */
    OpKey key() const { return key_; }

  protected:
    OperationNode(std::string name, std::vector<int64_t> shape)
        : name_(std::move(name)), shape_(std::move(shape))
    {}

    std::string name_;
    std::vector<int64_t> shape_;
    OpKey key_ = 0; ///< set by each subclass constructor
};

/** A graph leaf: externally supplied dense data of a known shape. */
class PlaceholderOp : public OperationNode
{
  public:
    PlaceholderOp(std::string name, std::vector<int64_t> shape);

    std::vector<Tensor> inputs() const override { return {}; }
    bool isPlaceholder() const override { return true; }
};

/**
 * A nested-loop computation node.
 *
 * Spatial axes correspond one-to-one with output dimensions; reduce axes sum
 * the body over their domain:
 *     O[axis...] = sum over reduceAxis... of body
 * With no reduce axes the body is stored directly.
 */
class ComputeOp : public OperationNode
{
  public:
    ComputeOp(std::string name, std::vector<IterVar> axis,
              std::vector<IterVar> reduce_axis, Expr body);
    ~ComputeOp() override;

    std::vector<Tensor> inputs() const override;
    bool isPlaceholder() const override { return false; }

    /** Spatial loop axes (one per output dimension, outer to inner). */
    const std::vector<IterVar> &axis() const { return axis_; }

    /** Reduce loop axes (possibly empty). */
    const std::vector<IterVar> &reduceAxis() const { return reduceAxis_; }

    /** Scalar body computed (and summed, if reducing) at each point. */
    const Expr &body() const { return body_; }

    /**
     * Every Access node of the body in visitExpr pre-order (repeats
     * included), collected once at construction; the body is immutable.
     */
    const std::vector<const ExprNode *> &accesses() const
    {
        return accesses_;
    }

    /**
     * The schedule-independent analysis of the body's index expressions
     * (analysis/index_analysis.h) that every lowering and verification
     * of this node reads. Built on first use, so operators that are
     * never scheduled never pay for it; safe to call from concurrent
     * threads.
     */
    const IndexAnalysis &indexAnalysis() const;

  private:
    std::vector<IterVar> axis_;
    std::vector<IterVar> reduceAxis_;
    Expr body_;
    std::vector<Tensor> inputs_; ///< cached distinct input tensors
    std::vector<const ExprNode *> accesses_; ///< cached body accesses
    mutable std::atomic<const IndexAnalysis *> indexAnalysis_{nullptr};
};

/** Create a placeholder tensor. */
Tensor placeholder(std::string name, std::vector<int64_t> shape);

/**
 * A compile-time constant tensor (e.g. the Winograd transform matrices).
 * Constants are graph leaves like placeholders, but carry their data, so
 * executors materialize them without user-provided buffers.
 */
class ConstantOp : public OperationNode
{
  public:
    ConstantOp(std::string name, std::vector<int64_t> shape,
               std::vector<float> data);

    std::vector<Tensor> inputs() const override { return {}; }
    bool isPlaceholder() const override { return false; }
    bool isConstant() const override { return true; }

    /** The embedded row-major data. */
    const std::vector<float> &data() const { return data_; }

  private:
    std::vector<float> data_;
};

/** Create a constant tensor with row-major data. */
Tensor constant(std::string name, std::vector<int64_t> shape,
                std::vector<float> data);

/**
 * Create a compute node from a lambda over the spatial indices.
 *
 * The lambda receives one Expr per output dimension and returns the scalar
 * body. Reduce axes, if any, must be created up front with makeIterVar and
 * passed in `reduce_axis`; every appearance of a reduce axis inside the body
 * is summed over.
 */
Tensor compute(std::string name, std::vector<int64_t> shape,
               const std::function<Expr(const std::vector<Expr> &)> &fn,
               std::vector<IterVar> reduce_axis = {});

/**
 * Zero-pad a tensor along the trailing `pads.size()/2` spatial dimensions.
 *
 * `pads` holds (before, after) pairs for each padded trailing dimension.
 * Produces a separate graph node, mirroring the paper's mini-graphs where
 * padding is an explicit node (e.g. C2D has #node = 2).
 */
Tensor pad(const Tensor &t, const std::vector<int64_t> &pads,
           std::string name = "");

/**
 * Dilate a tensor by inserting `stride - 1` zeros between elements of the
 * trailing dims (used by transposed convolutions). `strides` has one entry
 * per dilated trailing dimension.
 */
Tensor dilate(const Tensor &t, const std::vector<int64_t> &strides,
              std::string name = "");

} // namespace ft

#endif // FLEXTENSOR_IR_OPERATION_H
