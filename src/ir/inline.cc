#include "ir/inline.h"

#include <unordered_map>

#include "support/logging.h"

namespace ft {

bool
canInline(const Operation &op)
{
    if (op->isPlaceholder() || op->isConstant())
        return false;
    const auto *c = static_cast<const ComputeOp *>(op.get());
    return c->reduceAxis().empty();
}

namespace {

using VarSubst = std::unordered_map<const IterVarNode *, Expr>;
using OpRemap = std::unordered_map<const OperationNode *, Operation>;

/**
 * Rebuild `e` with variables substituted per `vars` and access targets
 * redirected per `ops`. Accesses to inlinable ops in `inline_bodies` are
 * replaced by the (already rewritten) body with the axis bound to the
 * access indices.
 */
Expr
rewrite(const Expr &e, const VarSubst &vars, const OpRemap &ops,
        const std::unordered_map<const OperationNode *, Expr>
            &inline_bodies)
{
    if (!e)
        return e;
    switch (e->kind) {
      case ExprKind::IntImm:
      case ExprKind::FloatImm:
        return e;
      case ExprKind::Var: {
        auto it = vars.find(e->var.get());
        return it != vars.end() ? it->second : e;
      }
      case ExprKind::Select:
        return select(rewrite(e->a, vars, ops, inline_bodies),
                      rewrite(e->b, vars, ops, inline_bodies),
                      rewrite(e->c, vars, ops, inline_bodies));
      case ExprKind::Access: {
        std::vector<Expr> idx;
        idx.reserve(e->indices.size());
        for (const auto &i : e->indices)
            idx.push_back(rewrite(i, vars, ops, inline_bodies));

        auto inl = inline_bodies.find(e->source.get());
        if (inl != inline_bodies.end()) {
            // Bind the producer's spatial vars to the access indices and
            // splice its body in.
            const auto *producer =
                static_cast<const ComputeOp *>(e->source.get());
            FT_ASSERT(producer->axis().size() == idx.size(),
                      "access rank mismatch while inlining");
            VarSubst bind;
            for (size_t d = 0; d < idx.size(); ++d)
                bind[producer->axis()[d].get()] = idx[d];
            return rewrite(inl->second, bind, ops, inline_bodies);
        }
        auto remapped = ops.find(e->source.get());
        const Operation &target =
            remapped != ops.end() ? remapped->second : e->source;
        return access(target, std::move(idx));
      }
      default:
        return makeBinary(e->kind,
                          rewrite(e->a, vars, ops, inline_bodies),
                          rewrite(e->b, vars, ops, inline_bodies));
    }
}

} // namespace

Expr
inlineAccessesTo(const Expr &expr, const Operation &producer)
{
    FT_ASSERT(canInline(producer), "producer is not inlinable");
    const auto *c = static_cast<const ComputeOp *>(producer.get());
    std::unordered_map<const OperationNode *, Expr> bodies;
    bodies[producer.get()] = c->body();
    return rewrite(expr, {}, {}, bodies);
}

Tensor
inlineGraph(const Tensor &root)
{
    FT_ASSERT(root.defined(), "inlineGraph of undefined tensor");
    OpRemap remap;
    std::unordered_map<const OperationNode *, Expr> bodies;
    Operation new_root;

    for (const auto &node : postOrderTraverse(root)) {
        if (node->isPlaceholder() || node->isConstant())
            continue;
        const auto *c = static_cast<const ComputeOp *>(node.get());
        if (canInline(node) && node.get() != root.op().get()) {
            bodies[node.get()] = rewrite(c->body(), {}, remap, bodies);
            continue;
        }
        Expr body = rewrite(c->body(), {}, remap, bodies);
        Operation rebuilt = std::make_shared<ComputeOp>(
            c->name(), c->axis(), c->reduceAxis(), std::move(body));
        remap[node.get()] = rebuilt;
        if (node.get() == root.op().get())
            new_root = rebuilt;
    }
    FT_ASSERT(new_root != nullptr, "root must be a compute node");
    return Tensor(new_root);
}

} // namespace ft
