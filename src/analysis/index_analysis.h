/**
 * @file
 * The schedule-independent half of the index analysis of one operator.
 *
 * Lowering (schedule/generator_*.cc) and the verifier's race and bounds
 * passes (analysis/verify) run on every trial of a search, but most of
 * what they derive from the operator body never changes from one
 * schedule to the next: which variables exist, the shape of every index
 * expression, the guard atoms of every select branch and how each
 * subexpression matches them, the FLOP count, the coalescing
 * coefficients of each access. An IndexAnalysis works all of that out
 * once per ComputeOp (ComputeOp::indexAnalysis builds it on first use)
 * and leaves only interval arithmetic for each trial:
 *
 *  - Variables live in dense slots: the spatial axes in order, then the
 *    reduce axes. A trial's ranges are one Interval per slot.
 *  - Each access index, and each side of each guard atom, is flattened
 *    into an IntervalProgram: a postfix list of steps that does the
 *    same arithmetic as the tree walks of analysis/bounds.cc, in the
 *    same order, with each step's guard refinements (the atoms whose
 *    side matches that subexpression up to a constant offset) resolved
 *    at build time.
 *  - The bounds prover's walk over the body becomes a flat list of
 *    AccessChecks in the same order, so the diagnostics it reports are
 *    the same ones, in the same order.
 */
#ifndef FLEXTENSOR_ANALYSIS_INDEX_ANALYSIS_H
#define FLEXTENSOR_ANALYSIS_INDEX_ANALYSIS_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/bounds.h"
#include "ir/operation.h"

namespace ft {

/** One step of an IntervalProgram; operands are earlier step indices. */
struct IntervalStep
{
    enum class Op : uint8_t {
        Imm,    ///< [imm, imm]
        Var,    ///< the range of slot `imm`
        Add,
        Sub,
        Mul,
        Div,    ///< floor division
        Mod,
        Min,
        Max,
        Select, ///< union of the branches `a` and `b`
        Bool,   ///< a comparison or logical op: [0, 1]
        Wide    ///< not an integer index (guarded: unbounded)
    };
    Op op = Op::Wide;
    int32_t a = -1;
    int32_t b = -1;
    int64_t imm = 0;
    /** This step's guard refinements: [refineBegin, refineEnd). */
    uint32_t refineBegin = 0;
    uint32_t refineEnd = 0;
};

/**
 * A guard fact applied to one step: the step's expression equals an
 * atom side plus `delta`, so its upper bound is at most hi(side) +
 * delta (`upper`, the step matched an atom's lhs and `side` is its rhs)
 * or its lower bound at least lo(side) + delta.
 */
struct GuardRefinement
{
    int32_t side = -1; ///< step computing the other side of the atom
    int64_t delta = 0;
    bool upper = false;
};

/**
 * Flattened interval arithmetic over slot ranges. Running a program
 * fills one Interval per step.
 */
struct IntervalProgram
{
    std::vector<IntervalStep> steps;
    std::vector<GuardRefinement> refinements;

    /**
     * boundsOf semantics: no empty intervals; a divisor range that is
     * not provably positive, or a non-integer node, is a fatal error.
     */
    void runStrict(const Interval *slots, Interval *values) const;

    /**
     * Guard-aware semantics of the bounds prover: each step is refined
     * against its guard atoms, an empty interval (an unreachable guard
     * combination) propagates up, and unsupported operations widen to
     * an unbounded interval instead of failing.
     */
    void runGuarded(const Interval *slots, Interval *values) const;
};

/**
 * One read the bounds prover checks: dimension `dim` of `access` must
 * stay within [0, extent) when its guarded interval is non-empty. An
 * empty interval skips this check and the `skip` checks that follow
 * (the accesses nested inside that index expression).
 */
struct AccessCheck
{
    const ExprNode *access = nullptr;
    uint32_t dim = 0;
    int32_t root = -1; ///< step of the guarded program
    int64_t extent = 1;
    uint32_t skip = 0;
};

/** One guard fact `lhs <= rhs` that holds inside a select branch. */
struct GuardAtom
{
    Expr lhs, rhs;
};

/**
 * Normalize a guard condition into `lhs <= rhs` atoms. Conjunctions
 * recurse; disjunctions and anything else contribute nothing (sound:
 * fewer atoms only widen intervals).
 */
void extractGuardAtoms(const Expr &cond, std::vector<GuardAtom> &out);

/**
 * The constant d with a == b + d: affine matching for linear
 * expressions with reassociated terms, else a structural match after
 * peeling one added or subtracted integer constant off each side.
 */
std::optional<int64_t> matchDelta(const Expr &a, const Expr &b);

/** The schedule-independent index facts of one ComputeOp. */
class IndexAnalysis
{
  public:
    /** Sub-loop levels whose names are precomputed (see loopName). */
    static constexpr int kNamedLevels = 4;

    explicit IndexAnalysis(const ComputeOp &op);

    IndexAnalysis(const IndexAnalysis &) = delete;
    IndexAnalysis &operator=(const IndexAnalysis &) = delete;

    /** Number of variable slots: axes, then reduce axes. */
    size_t numSlots() const { return slots_.size(); }

    /** The variable of a slot. */
    const IterVarNode *slotVar(size_t slot) const { return slots_[slot]; }

    /** Slot of a variable, or -1 when it is none of the op's axes. */
    int slotOf(const IterVarNode *var) const
    {
        for (size_t s = 0; s < slots_.size(); ++s) {
            if (slots_[s] == var)
                return static_cast<int>(s);
        }
        return -1;
    }

    /**
     * Name of sub-loop `level` of a slot's split, as splitLoop spells
     * it: "<axis>.s<level>" for an axis, "<axis>.r<level>" for a reduce
     * axis.
     */
    const std::string &loopName(size_t slot, int level) const
    {
        return loopNames_[slot * kNamedLevels + level];
    }

    /** flopsOf the operator. */
    double flops() const { return flops_; }

    /**
     * The GPU coalescing factor: 0.4 + 0.6 x the fraction of accesses
     * whose last index has unit coefficient in the innermost axis (1.0
     * for an op with no axes).
     */
    double coalesceFactor() const { return coalesceFactor_; }

    /** Number of body accesses (ComputeOp::accesses order). */
    size_t numAccesses() const { return accesses_.size(); }

    /** Bytes of fp32 of the tensor body access `i` reads. */
    int64_t accessTensorBytes(size_t i) const
    {
        return accesses_[i].tensorBytes;
    }

    /**
     * accessFootprint of every body access under per-slot `ranges`,
     * into `cells` (numAccesses entries). When `firstLast` is given it
     * receives the bounds of the last index of the first access (left
     * untouched when there is no such index).
     */
    void footprints(const Interval *ranges, int64_t *cells,
                    Interval *firstLast = nullptr) const;

    /** The guarded program and the checks the bounds prover runs. */
    const IntervalProgram &guardedProgram() const { return guarded_; }
    const std::vector<AccessCheck> &accessChecks() const { return checks_; }

  private:
    struct Access
    {
        const ExprNode *node = nullptr;
        int64_t tensorBytes = 4;
        uint32_t rootBegin = 0; ///< into footprintRoots_, one per dim
    };

    std::vector<const IterVarNode *> slots_;
    std::vector<std::string> loopNames_;
    double flops_ = 0.0;
    double coalesceFactor_ = 1.0;
    std::vector<Access> accesses_;
    IntervalProgram footprint_;
    std::vector<int32_t> footprintRoots_;
    IntervalProgram guarded_;
    std::vector<AccessCheck> checks_;
};

/**
 * Per-thread buffers of the per-trial passes (lowering, the bounds
 * prover): they grow on demand and are kept, so a warm thread lowers
 * and verifies without allocating. A pass owns them only until it
 * returns.
 */
struct IndexScratch
{
    std::vector<Interval> ranges; ///< one per slot
    std::vector<int64_t> cells;   ///< one per access
    std::vector<Interval> values; ///< one per program step
};

/** This thread's IndexScratch. */
IndexScratch &indexScratch();

} // namespace ft

#endif // FLEXTENSOR_ANALYSIS_INDEX_ANALYSIS_H
