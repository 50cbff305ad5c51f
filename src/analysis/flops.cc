#include "analysis/flops.h"

#include <algorithm>

#include "support/logging.h"

namespace ft {

namespace {

/**
 * Count arithmetic float ops in one evaluation of an expression. Only the
 * floating-point dataflow counts: index expressions inside accesses and
 * select predicates are integer bookkeeping, not FLOPs.
 */
double
bodyArithmeticOps(const Expr &e)
{
    if (!e)
        return 0.0;
    switch (e->kind) {
      case ExprKind::Add:
      case ExprKind::Sub:
      case ExprKind::Mul:
      case ExprKind::Div:
      case ExprKind::Min:
      case ExprKind::Max:
        return 1.0 + bodyArithmeticOps(e->a) + bodyArithmeticOps(e->b);
      case ExprKind::Select:
        // Predicate is integer; both branches may execute across points,
        // count the larger one.
        return std::max(bodyArithmeticOps(e->b), bodyArithmeticOps(e->c));
      case ExprKind::Access: // leaf of the float dataflow
      default:
        return 0.0;
    }
}

} // namespace

double
flopsOf(const Operation &op)
{
    if (op->isPlaceholder() || op->isConstant())
        return 0.0;
    return flopsOf(*static_cast<const ComputeOp *>(op.get()));
}

double
flopsOf(const ComputeOp &op)
{
    double spatial = 1.0;
    for (const auto &iv : op.axis())
        spatial *= static_cast<double>(iv->extent);
    double reduce = 1.0;
    for (const auto &iv : op.reduceAxis())
        reduce *= static_cast<double>(iv->extent);
    double body = bodyArithmeticOps(op.body());
    // Each reduce iteration also performs one accumulate.
    double perPoint = op.reduceAxis().empty()
                          ? body
                          : reduce * (body + 1.0);
    // Pure data movement (e.g. the zero-FLOP shift operator) counts one
    // effective op per output point so throughput stays measurable.
    if (perPoint == 0.0)
        perPoint = 1.0;
    return spatial * perPoint;
}

double
flopsOf(const MiniGraph &graph)
{
    double total = 0.0;
    for (const auto &op : graph.postOrder())
        total += flopsOf(op);
    return total;
}

double
anchorFlops(const MiniGraph &graph)
{
    double best = 0.0;
    for (const auto &op : graph.postOrder())
        best = std::max(best, flopsOf(op));
    FT_ASSERT(best > 0.0, "graph has no compute work");
    return best;
}

} // namespace ft
