#include "analysis/index_analysis.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "analysis/flops.h"
#include "schedule/loop_nest.h"
#include "support/logging.h"

namespace ft {

namespace {

/** Saturation bound for intervals the guarded analysis cannot pin. */
constexpr int64_t kWide = int64_t(1) << 40;

bool
isEmpty(const Interval &i)
{
    return i.lo > i.hi;
}

Interval
combine4(int64_t a, int64_t b, int64_t c, int64_t d)
{
    return Interval{std::min(std::min(a, b), std::min(c, d)),
                    std::max(std::max(a, b), std::max(c, d))};
}

/** Affine = integer linear in the iteration variables. */
bool
hasVars(const Expr &e)
{
    bool found = false;
    visitExpr(e, [&found](const ExprNode &n) {
        if (n.kind == ExprKind::Var)
            found = true;
    });
    return found;
}

bool
isAffine(const Expr &e)
{
    switch (e->kind) {
      case ExprKind::IntImm:
      case ExprKind::Var:
        return true;
      case ExprKind::Add:
      case ExprKind::Sub:
        return isAffine(e->a) && isAffine(e->b);
      case ExprKind::Mul:
        // Linear only when one side is a constant expression.
        return isAffine(e->a) && isAffine(e->b) &&
               (!hasVars(e->a) || !hasVars(e->b));
      default:
        return false;
    }
}

int64_t
evalAtZero(const Expr &e)
{
    std::vector<std::pair<const IterVarNode *, int64_t>> env;
    for (const IterVar &v : collectVars(e))
        env.emplace_back(v.get(), 0);
    return evalIntExpr(e, env);
}

/**
 * The constant d with a == b + d, when both expressions are affine with
 * identical linear parts; nullopt otherwise.
 */
std::optional<int64_t>
affineDelta(const Expr &a, const Expr &b)
{
    if (!isAffine(a) || !isAffine(b))
        return std::nullopt;
    std::vector<const IterVarNode *> vars;
    for (const IterVar &v : collectVars(a))
        vars.push_back(v.get());
    for (const IterVar &v : collectVars(b)) {
        if (std::find(vars.begin(), vars.end(), v.get()) == vars.end())
            vars.push_back(v.get());
    }
    for (const IterVarNode *v : vars) {
        if (linearCoefficient(a, v) != linearCoefficient(b, v))
            return std::nullopt;
    }
    return evalAtZero(a) - evalAtZero(b);
}

/** Structural equality (same shape, same vars, same constants). */
bool
sameExpr(const Expr &a, const Expr &b)
{
    if (a.get() == b.get())
        return true;
    if (!a || !b || a->kind != b->kind)
        return false;
    switch (a->kind) {
      case ExprKind::IntImm:
        return a->intValue == b->intValue;
      case ExprKind::FloatImm:
        return a->floatValue == b->floatValue;
      case ExprKind::Var:
        return a->var.get() == b->var.get();
      case ExprKind::Access: {
        if (a->source.get() != b->source.get() ||
            a->indices.size() != b->indices.size())
            return false;
        for (size_t i = 0; i < a->indices.size(); ++i) {
            if (!sameExpr(a->indices[i], b->indices[i]))
                return false;
        }
        return true;
      }
      default:
        return sameExpr(a->a, b->a) && sameExpr(a->b, b->b) &&
               (a->c == nullptr) == (b->c == nullptr) &&
               (a->c == nullptr || sameExpr(a->c, b->c));
    }
}

IntervalStep::Op
binaryOp(ExprKind kind)
{
    switch (kind) {
      case ExprKind::Add: return IntervalStep::Op::Add;
      case ExprKind::Sub: return IntervalStep::Op::Sub;
      case ExprKind::Mul: return IntervalStep::Op::Mul;
      case ExprKind::Div: return IntervalStep::Op::Div;
      case ExprKind::Mod: return IntervalStep::Op::Mod;
      case ExprKind::Min: return IntervalStep::Op::Min;
      case ExprKind::Max: return IntervalStep::Op::Max;
      default: return IntervalStep::Op::Wide;
    }
}

/**
 * Flattens index expressions into one IntervalProgram. Without guard
 * atoms, a subtree is emitted once however often it appears (its
 * interval depends on the ranges alone); under atoms every occurrence
 * gets its own steps and refinements.
 */
class ProgramBuilder
{
  public:
    ProgramBuilder(IntervalProgram &prog, const IndexAnalysis &ia)
        : prog_(prog), ia_(ia)
    {}

    /** Steps for `e` with no guard atoms (shared subtrees reused). */
    int32_t plain(const Expr &e)
    {
        if (e) {
            auto it = memo_.find(e.get());
            if (it != memo_.end())
                return it->second;
        }
        std::vector<GuardAtom> none;
        int32_t root = guarded(e, none, nullptr);
        if (e)
            memo_.emplace(e.get(), root);
        return root;
    }

    /**
     * Steps for `e` refined against `atoms`; `sides[k]` caches the
     * steps of atom k's (lhs, rhs), -1 until first needed.
     */
    int32_t guarded(const Expr &e, const std::vector<GuardAtom> &atoms,
                    std::vector<std::pair<int32_t, int32_t>> *sides)
    {
        IntervalStep step;
        if (!e)
            return emit(step); // unbounded, never refined
        switch (e->kind) {
          case ExprKind::IntImm:
            step.op = IntervalStep::Op::Imm;
            step.imm = e->intValue;
            break;
          case ExprKind::Var: {
            int slot = ia_.slotOf(e->var.get());
            FT_ASSERT(slot >= 0, "index reads ", e->var->name,
                      ", which is none of the op's axes");
            step.op = IntervalStep::Op::Var;
            step.imm = slot;
            break;
          }
          case ExprKind::Add:
          case ExprKind::Sub:
          case ExprKind::Mul:
          case ExprKind::Div:
          case ExprKind::Mod:
          case ExprKind::Min:
          case ExprKind::Max:
            step.op = binaryOp(e->kind);
            step.a = sub(e->a, atoms, sides);
            step.b = sub(e->b, atoms, sides);
            break;
          case ExprKind::Select:
            // The condition is not consulted (see boundsOf).
            step.op = IntervalStep::Op::Select;
            step.a = sub(e->b, atoms, sides);
            step.b = sub(e->c, atoms, sides);
            break;
          case ExprKind::CmpLT:
          case ExprKind::CmpLE:
          case ExprKind::CmpEQ:
          case ExprKind::And:
          case ExprKind::Or:
            step.op = IntervalStep::Op::Bool;
            break;
          default: // FloatImm / Access: not an integer index expression
            break;
        }
        // Resolve this node's matches against every atom now, emitting
        // the matched atom sides before the step that reads them.
        std::vector<GuardRefinement> refs;
        for (size_t k = 0; k < atoms.size(); ++k) {
            if (auto d = matchDelta(e, atoms[k].lhs))
                refs.push_back({side(atoms, *sides, k, false), *d, true});
            if (auto d = matchDelta(e, atoms[k].rhs))
                refs.push_back({side(atoms, *sides, k, true), *d, false});
        }
        step.refineBegin = static_cast<uint32_t>(prog_.refinements.size());
        prog_.refinements.insert(prog_.refinements.end(), refs.begin(),
                                 refs.end());
        step.refineEnd = static_cast<uint32_t>(prog_.refinements.size());
        return emit(step);
    }

  private:
    int32_t sub(const Expr &e, const std::vector<GuardAtom> &atoms,
                std::vector<std::pair<int32_t, int32_t>> *sides)
    {
        return atoms.empty() ? plain(e) : guarded(e, atoms, sides);
    }

    /** Steps of atom k's lhs (`lhs`) or rhs, emitted once. */
    int32_t side(const std::vector<GuardAtom> &atoms,
                 std::vector<std::pair<int32_t, int32_t>> &sides, size_t k,
                 bool lhs)
    {
        int32_t &root = lhs ? sides[k].first : sides[k].second;
        if (root < 0)
            root = plain(lhs ? atoms[k].lhs : atoms[k].rhs);
        return root;
    }

    int32_t emit(const IntervalStep &step)
    {
        prog_.steps.push_back(step);
        return static_cast<int32_t>(prog_.steps.size() - 1);
    }

    IntervalProgram &prog_;
    const IndexAnalysis &ia_;
    std::unordered_map<const ExprNode *, int32_t> memo_;
};

/** The bounds prover's walk over the body, recorded as AccessChecks. */
void
recordChecks(const Expr &e, std::vector<GuardAtom> &atoms,
             std::vector<std::pair<int32_t, int32_t>> &sides,
             ProgramBuilder &builder, std::vector<AccessCheck> &checks)
{
    if (!e)
        return;
    switch (e->kind) {
      case ExprKind::Select: {
        // The condition evaluates unconditionally; the then-branch runs
        // under the condition's atoms; the else-branch gains nothing
        // (negations are not tracked).
        recordChecks(e->a, atoms, sides, builder, checks);
        size_t base = atoms.size();
        extractGuardAtoms(e->a, atoms);
        sides.resize(atoms.size(), {-1, -1});
        recordChecks(e->b, atoms, sides, builder, checks);
        atoms.resize(base);
        sides.resize(base);
        recordChecks(e->c, atoms, sides, builder, checks);
        break;
      }
      case ExprKind::Access: {
        const auto &shape = e->source->outputShape();
        for (size_t d = 0; d < e->indices.size(); ++d) {
            AccessCheck check;
            check.access = e.get();
            check.dim = static_cast<uint32_t>(d);
            check.root = atoms.empty()
                             ? builder.plain(e->indices[d])
                             : builder.guarded(e->indices[d], atoms, &sides);
            check.extent = d < shape.size() ? shape[d] : 1;
            size_t at = checks.size();
            checks.push_back(check);
            recordChecks(e->indices[d], atoms, sides, builder, checks);
            checks[at].skip = static_cast<uint32_t>(checks.size() - at - 1);
        }
        break;
      }
      default:
        recordChecks(e->a, atoms, sides, builder, checks);
        recordChecks(e->b, atoms, sides, builder, checks);
        recordChecks(e->c, atoms, sides, builder, checks);
        break;
    }
}

} // namespace

std::optional<int64_t>
matchDelta(const Expr &a, const Expr &b)
{
    if (auto d = affineDelta(a, b))
        return d;
    auto peel = [](const Expr &e, Expr &core) -> int64_t {
        if (e->kind == ExprKind::Add && e->b->kind == ExprKind::IntImm) {
            core = e->a;
            return e->b->intValue;
        }
        if (e->kind == ExprKind::Add && e->a->kind == ExprKind::IntImm) {
            core = e->b;
            return e->a->intValue;
        }
        if (e->kind == ExprKind::Sub && e->b->kind == ExprKind::IntImm) {
            core = e->a;
            return -e->b->intValue;
        }
        core = e;
        return 0;
    };
    Expr core_a, core_b;
    int64_t da = peel(a, core_a), db = peel(b, core_b);
    if (sameExpr(core_a, core_b))
        return da - db;
    return std::nullopt;
}

void
extractGuardAtoms(const Expr &cond, std::vector<GuardAtom> &out)
{
    switch (cond->kind) {
      case ExprKind::And:
        extractGuardAtoms(cond->a, out);
        extractGuardAtoms(cond->b, out);
        break;
      case ExprKind::CmpLE:
        out.push_back({cond->a, cond->b});
        break;
      case ExprKind::CmpLT:
        out.push_back({cond->a, sub(cond->b, intImm(1))});
        break;
      case ExprKind::CmpEQ:
        out.push_back({cond->a, cond->b});
        out.push_back({cond->b, cond->a});
        break;
      default:
        break;
    }
}

void
IntervalProgram::runStrict(const Interval *slots, Interval *values) const
{
    using Op = IntervalStep::Op;
    for (size_t i = 0; i < steps.size(); ++i) {
        const IntervalStep &s = steps[i];
        Interval &out = values[i];
        switch (s.op) {
          case Op::Imm:
            out = {s.imm, s.imm};
            break;
          case Op::Var:
            out = slots[s.imm];
            break;
          case Op::Add: {
            const Interval a = values[s.a], b = values[s.b];
            out = {a.lo + b.lo, a.hi + b.hi};
            break;
          }
          case Op::Sub: {
            const Interval a = values[s.a], b = values[s.b];
            out = {a.lo - b.hi, a.hi - b.lo};
            break;
          }
          case Op::Mul: {
            const Interval a = values[s.a], b = values[s.b];
            out = combine4(a.lo * b.lo, a.lo * b.hi, a.hi * b.lo,
                           a.hi * b.hi);
            break;
          }
          case Op::Div: {
            const Interval a = values[s.a], b = values[s.b];
            FT_ASSERT(b.lo > 0, "interval division by non-positive divisor");
            out = combine4(a.lo / b.lo, a.lo / b.hi, a.hi / b.lo,
                           a.hi / b.hi);
            break;
          }
          case Op::Mod: {
            const Interval a = values[s.a], b = values[s.b];
            FT_ASSERT(b.lo > 0, "interval modulo by non-positive divisor");
            // A tight special case: if the whole numerator range fits
            // inside one period, the modulo is affine there.
            if (a.lo >= 0 && a.lo / b.lo == a.hi / b.lo && b.lo == b.hi)
                out = {a.lo % b.lo, a.hi % b.lo};
            else
                out = {0, b.hi - 1};
            break;
          }
          case Op::Min: {
            const Interval a = values[s.a], b = values[s.b];
            out = {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
            break;
          }
          case Op::Max: {
            const Interval a = values[s.a], b = values[s.b];
            out = {std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
            break;
          }
          case Op::Select: {
            const Interval a = values[s.a], b = values[s.b];
            out = {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
            break;
          }
          case Op::Bool:
            out = {0, 1};
            break;
          case Op::Wide:
            panic("boundsOf: unsupported expr kind for integer bounds");
        }
    }
}

void
IntervalProgram::runGuarded(const Interval *slots, Interval *values) const
{
    using Op = IntervalStep::Op;
    const Interval empty{1, 0};
    const Interval wide{-kWide, kWide};
    for (size_t i = 0; i < steps.size(); ++i) {
        const IntervalStep &s = steps[i];
        Interval raw;
        switch (s.op) {
          case Op::Imm:
            raw = {s.imm, s.imm};
            break;
          case Op::Var:
            raw = slots[s.imm];
            break;
          case Op::Bool:
            raw = {0, 1};
            break;
          case Op::Wide:
            raw = wide;
            break;
          default: {
            const Interval a = values[s.a], b = values[s.b];
            if (s.op == Op::Select) {
                // An unreachable branch leaves the other, unrefined.
                if (isEmpty(a)) {
                    values[i] = b;
                    continue;
                }
                if (isEmpty(b)) {
                    values[i] = a;
                    continue;
                }
                raw = {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
                break;
            }
            if (isEmpty(a) || isEmpty(b)) {
                values[i] = empty;
                continue;
            }
            switch (s.op) {
              case Op::Add:
                raw = {a.lo + b.lo, a.hi + b.hi};
                break;
              case Op::Sub:
                raw = {a.lo - b.hi, a.hi - b.lo};
                break;
              case Op::Mul:
                raw = combine4(a.lo * b.lo, a.lo * b.hi, a.hi * b.lo,
                               a.hi * b.hi);
                break;
              case Op::Div:
                // A divisor range not provably positive widens.
                raw = b.lo <= 0 ? wide
                                : combine4(a.lo / b.lo, a.lo / b.hi,
                                           a.hi / b.lo, a.hi / b.hi);
                break;
              case Op::Mod:
                if (b.lo <= 0)
                    raw = wide;
                else if (a.lo >= 0 && a.lo / b.lo == a.hi / b.lo &&
                         b.lo == b.hi)
                    raw = {a.lo % b.lo, a.hi % b.lo};
                else
                    raw = {0, b.hi - 1};
                break;
              case Op::Min:
                raw = {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
                break;
              default: // Max
                raw = {std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
                break;
            }
            break;
          }
        }
        // Tighten with every matched guard atom: e == lhs + d gives
        // e <= hi(rhs) + d, e == rhs + d gives e >= lo(lhs) + d.
        for (uint32_t r = s.refineBegin; r < s.refineEnd; ++r) {
            const GuardRefinement &g = refinements[r];
            const Interval side = values[g.side];
            if (isEmpty(side))
                continue;
            if (g.upper)
                raw.hi = std::min(raw.hi, side.hi + g.delta);
            else
                raw.lo = std::max(raw.lo, side.lo + g.delta);
        }
        values[i] = raw;
    }
}

IndexAnalysis::IndexAnalysis(const ComputeOp &op)
{
    for (const auto *axes : {&op.axis(), &op.reduceAxis()}) {
        for (const IterVar &iv : *axes) {
            FT_ASSERT(slotOf(iv.get()) < 0, "axis ", iv->name, " of ",
                      op.name(), " appears twice");
            slots_.push_back(iv.get());
        }
    }
    loopNames_.reserve(slots_.size() * kNamedLevels);
    for (size_t s = 0; s < slots_.size(); ++s) {
        const char *suffix = s < op.axis().size() ? ".s" : ".r";
        for (int level = 0; level < kNamedLevels; ++level)
            loopNames_.push_back(slots_[s]->name + suffix +
                                 std::to_string(level));
    }
    flops_ = flopsOf(op);

    // Coalescing: the innermost thread-bound spatial axis should appear
    // with unit coefficient in the last index of each access.
    if (!op.axis().empty()) {
        const IterVarNode *inner = op.axis().back().get();
        int total = 0, good = 0;
        for (const ExprNode *acc : op.accesses()) {
            ++total;
            if (acc->indices.empty())
                continue;
            if (linearCoefficient(acc->indices.back(), inner) == 1)
                ++good;
        }
        double frac = total ? static_cast<double>(good) / total : 1.0;
        coalesceFactor_ = 0.4 + 0.6 * frac;
    }

    ProgramBuilder footprint(footprint_, *this);
    for (const ExprNode *acc : op.accesses()) {
        Access a;
        a.node = acc;
        for (int64_t d : acc->source->outputShape())
            a.tensorBytes *= d;
        a.rootBegin = static_cast<uint32_t>(footprintRoots_.size());
        for (const Expr &index : acc->indices)
            footprintRoots_.push_back(footprint.plain(index));
        accesses_.push_back(a);
    }

    ProgramBuilder guarded(guarded_, *this);
    std::vector<GuardAtom> atoms;
    std::vector<std::pair<int32_t, int32_t>> sides;
    recordChecks(op.body(), atoms, sides, guarded, checks_);
}

void
IndexAnalysis::footprints(const Interval *ranges, int64_t *cells,
                          Interval *firstLast) const
{
    std::vector<Interval> &buffer = indexScratch().values;
    if (buffer.size() < footprint_.steps.size())
        buffer.resize(footprint_.steps.size());
    Interval *values = buffer.data();
    footprint_.runStrict(ranges, values);
    for (size_t i = 0; i < accesses_.size(); ++i) {
        const Access &a = accesses_[i];
        const auto &shape = a.node->source->outputShape();
        int64_t c = 1;
        for (size_t d = 0; d < a.node->indices.size(); ++d) {
            const Interval b = values[footprintRoots_[a.rootBegin + d]];
            // Clamp to the tensor's real extent; padding predicates
            // often make the raw interval wider than the data.
            int64_t lo = std::max<int64_t>(b.lo, 0);
            int64_t hi = std::min<int64_t>(b.hi, shape[d] - 1);
            c *= std::max<int64_t>(hi - lo + 1, 1);
        }
        cells[i] = c;
    }
    if (firstLast && !accesses_.empty()) {
        const Access &a = accesses_.front();
        if (!a.node->indices.empty())
            *firstLast = values[footprintRoots_[a.rootBegin +
                                                a.node->indices.size() - 1]];
    }
}

IndexScratch &
indexScratch()
{
    thread_local IndexScratch scratch;
    return scratch;
}

const IndexAnalysis &
ComputeOp::indexAnalysis() const
{
    const IndexAnalysis *built =
        indexAnalysis_.load(std::memory_order_acquire);
    if (built)
        return *built;
    // Racing first users each build one; the first to publish wins and
    // the others drop theirs (the analysis is a pure function of the
    // immutable body).
    auto mine = std::make_unique<const IndexAnalysis>(*this);
    const IndexAnalysis *expected = nullptr;
    if (indexAnalysis_.compare_exchange_strong(expected, mine.get(),
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire))
        return *mine.release();
    return *expected;
}

ComputeOp::~ComputeOp()
{
    delete indexAnalysis_.load(std::memory_order_relaxed);
}

} // namespace ft
