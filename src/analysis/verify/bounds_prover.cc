/**
 * @file
 * Access-bounds prover (FT-OOB-*): interval analysis over the variable
 * ranges a lowered nest realizes, proving every tensor access and the
 * output write within the buffer extents.
 *
 * The variable ranges come from the sub-loop strides, not the original
 * extents — an illegal split (e.g. a widened inner factor) widens the
 * realized range past the data, which is exactly the bug class this
 * pass catches.
 *
 * Guard awareness: inlined producers guard their accesses with select
 * predicates (zero padding emits `select(lo <= iv && iv < hi, t[..],
 * 0)`), whose raw index intervals extend past the data on purpose. The
 * prover therefore carries the conditions of every enclosing select
 * branch as "atoms" (normalized `lhs <= rhs` facts) and refines the
 * interval of each subexpression that matches an atom side up to an
 * affine constant offset. An interval refined to empty means the branch
 * is unreachable and its accesses are skipped, not reported. The atoms
 * and the matches are worked out once per operator (IndexAnalysis); a
 * trial runs the flattened guarded program over its slot ranges.
 */
#include <algorithm>
#include <string>

#include "analysis/index_analysis.h"
#include "analysis/verify/verify.h"

namespace ft {
namespace verify {

namespace {

void
reportAccess(DiagReport &out, const ExprNode &acc, size_t dim,
             const Interval &got, int64_t extent)
{
    std::string where =
        acc.source->name() + "[" + std::to_string(dim) + "]";
    std::string interval = "[" + std::to_string(got.lo) + ", " +
                           std::to_string(got.hi) + "]";
    if (got.lo < 0) {
        out.add({kOobUnderflow, Severity::Error, "", where,
                 "access index of " + where + " spans " + interval +
                     ": reads below element 0"});
    }
    if (got.hi > extent - 1) {
        out.add({kOobOverflow, Severity::Error, "", where,
                 "access index of " + where + " spans " + interval +
                     ": exceeds extent " + std::to_string(extent)});
    }
}

} // namespace

void
checkAccessBounds(const LoopNest &nest, DiagReport &out)
{
    if (!nest.op || nest.op->isPlaceholder())
        return;
    const auto *op = static_cast<const ComputeOp *>(nest.op.get());
    const IndexAnalysis &ia = op->indexAnalysis();

    // Realized range of every original variable: the stride-weighted
    // span of its sub-loops (NOT the declared extent — widened splits
    // must surface as wider ranges here).
    IndexScratch &scratch = indexScratch();
    std::vector<Interval> &ranges = scratch.ranges;
    ranges.assign(ia.numSlots(), Interval{0, 0});
    for (const SubLoop &l : nest.loops) {
        const int slot = l.origin ? ia.slotOf(l.origin) : -1;
        if (slot < 0)
            continue;
        int64_t reach = (l.extent - 1) * l.stride;
        ranges[slot].lo += std::min<int64_t>(reach, 0);
        ranges[slot].hi += std::max<int64_t>(reach, 0);
    }

    // Guarded (imperfectly tiled) axes declare that executors and
    // emitters skip every iteration with value >= extent, so the range
    // the body actually sees is the raw span clamped to the data. An
    // axis that overshoots WITHOUT being declared guarded keeps its raw
    // span and fails the proofs below — this is how the prover gates
    // imperfect tiles instead of the old divisibility assertion.
    for (const IterVarNode *g : nest.guardedAxes) {
        const int slot = ia.slotOf(g);
        if (slot < 0)
            continue;
        ranges[slot].lo = std::max<int64_t>(ranges[slot].lo, 0);
        ranges[slot].hi = std::min<int64_t>(ranges[slot].hi, g->extent - 1);
    }

    // Output write O[i1..iM]: each spatial index must stay within the
    // output extent (an over-wide split writes past the buffer).
    const auto &shape = op->outputShape();
    for (size_t d = 0; d < op->axis().size() && d < shape.size(); ++d) {
        const Interval r = ranges[d];
        if (r.lo >= 0 && r.hi <= shape[d] - 1)
            continue;
        std::string where = op->name() + "[" + std::to_string(d) + "]";
        std::string interval = "[" + std::to_string(r.lo) + ", " +
                               std::to_string(r.hi) + "]";
        if (r.lo < 0) {
            out.add({kOobUnderflow, Severity::Error,
                     op->axis()[d]->name, where,
                     "output write index of " + where + " spans " +
                         interval + ": writes below element 0"});
        }
        if (r.hi > shape[d] - 1) {
            out.add({kOobOverflow, Severity::Error, op->axis()[d]->name,
                     where,
                     "output write index of " + where + " spans " +
                         interval + ": exceeds extent " +
                         std::to_string(shape[d])});
        }
    }

    // Every read in the body, guard-aware, in the order of the body
    // walk; an unreachable guard combination (an empty interval) skips
    // the check and the reads nested in that index.
    const IntervalProgram &prog = ia.guardedProgram();
    if (scratch.values.size() < prog.steps.size())
        scratch.values.resize(prog.steps.size());
    Interval *values = scratch.values.data();
    prog.runGuarded(ranges.data(), values);
    const std::vector<AccessCheck> &checks = ia.accessChecks();
    for (size_t i = 0; i < checks.size(); ++i) {
        const AccessCheck &c = checks[i];
        const Interval b = values[c.root];
        if (b.lo > b.hi) {
            i += c.skip;
            continue;
        }
        if (b.lo < 0 || b.hi > c.extent - 1)
            reportAccess(out, *c.access, c.dim, b, c.extent);
    }
}

} // namespace verify
} // namespace ft
