/**
 * @file
 * Operator inlining (the `inline` schedule primitive of Table 2).
 *
 * Inlining substitutes an access to a produced tensor with the producer's
 * body, with the producer's spatial variables replaced by the access's
 * index expressions. FlexTensor inlines elementwise helper nodes (pad,
 * dilate, bias, relu) into their consumer so the fused kernel reads the
 * original data directly instead of materializing intermediates.
 *
 * Only nodes without reduce axes can be inlined (a reduction cannot be
 * replayed per consumer access without changing the cost model).
 */
#ifndef FLEXTENSOR_IR_INLINE_H
#define FLEXTENSOR_IR_INLINE_H

#include "ir/graph.h"

namespace ft {

/** True when `op` can be inlined into consumers (elementwise compute). */
bool canInline(const Operation &op);

/**
 * Substitute every access to `producer` inside `expr` with the producer's
 * body, remapping its spatial variables to the access indices.
 */
Expr inlineAccessesTo(const Expr &expr, const Operation &producer);

/**
 * Rewrite a whole graph: inline every inlinable non-root node into its
 * consumers and return the new root tensor. The resulting mini-graph has
 * fewer nodes but identical semantics (verified by tests).
 */
Tensor inlineGraph(const Tensor &root);

} // namespace ft

#endif // FLEXTENSOR_IR_INLINE_H
