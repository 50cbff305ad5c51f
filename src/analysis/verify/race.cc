/**
 * @file
 * Dependence/race detection over a lowered loop nest (FT-RACE-*) plus
 * the iteration-coverage proof (FT-COV-*).
 *
 * The anchor's output is written once per point of the original spatial
 * iteration space; every reduce iteration accumulates into the same
 * output element. The sub-loops of the nest realize those original
 * iterations through the mixed-radix map
 *     original index = sum_j  v_j * stride_j,   v_j in [0, extent_j)
 * so three things can go wrong statically:
 *
 *  - a Reduce-origin sub-loop with a concurrent annotation makes
 *    distinct hardware lanes accumulate into one element (FT-RACE-001);
 *  - aliasing strides make two distinct sub-loop index tuples of one
 *    spatial axis map to the same original index, i.e. two iterations
 *    write the same output element — a race when any of the axis's
 *    sub-loops runs concurrently (FT-RACE-002), a repeated serial write
 *    otherwise (FT-RACE-003, advisory);
 *  - the reachable index set does not cover [0, extent), leaving output
 *    elements unwritten or reduction terms dropped (FT-COV-001).
 *
 * Over-coverage (indices past the extent) is the bounds prover's
 * territory; this pass only proves the race/coverage half.
 */
#include <algorithm>
#include <string>
#include <vector>

#include "analysis/index_analysis.h"
#include "analysis/verify/verify.h"

namespace ft {
namespace verify {

namespace {

/** Sub-loops of one original axis, with the span they reach. */
struct AxisLoops
{
    const IterVarNode *origin = nullptr;
    int64_t lo = 0; ///< minimum reachable original index
    int64_t hi = 0; ///< maximum reachable original index
    int64_t tuples = 1; ///< number of sub-loop index tuples
    bool anyConcurrent = false;
    uint32_t count = 0; ///< number of sub-loops
    uint32_t begin = 0; ///< their offset in RaceScratch::byAxis
};

/** Per-thread buffers, kept so a warm thread checks without allocating. */
struct RaceScratch
{
    std::vector<AxisLoops> axes;
    std::vector<uint32_t> axisOf;              ///< per loop (origin'd only)
    std::vector<const SubLoop *> byAxis;       ///< loops grouped by axis
    std::vector<const SubLoop *> sorted;
};

RaceScratch &
raceScratch()
{
    thread_local RaceScratch scratch;
    return scratch;
}

std::string
axisAccess(const ComputeOp *op, const IterVarNode *axis)
{
    return op->name() + "[" + axis->name + "]";
}

/**
 * The mixed-radix map of one axis is injective iff, with sub-loops
 * sorted by descending stride, each stride exceeds the furthest index
 * the inner sub-loops can reach together. Exact splits satisfy this by
 * construction (stride_i == product of inner extents). Returns the
 * offending sub-loop when the condition fails. `loops` are the axis's
 * sub-loops in nest order.
 */
const SubLoop *
findAlias(const SubLoop *const *loops, size_t n,
          std::vector<const SubLoop *> &sorted)
{
    sorted.clear();
    for (size_t i = 0; i < n; ++i) {
        if (loops[i]->extent > 1)
            sorted.push_back(loops[i]);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const SubLoop *a, const SubLoop *b) {
                  return a->stride > b->stride;
              });
    for (size_t i = 0; i < sorted.size(); ++i) {
        int64_t inner_span = 0;
        for (size_t j = i + 1; j < sorted.size(); ++j)
            inner_span += (sorted[j]->extent - 1) * sorted[j]->stride;
        if (sorted[i]->stride <= inner_span)
            return sorted[i];
    }
    return nullptr;
}

} // namespace

void
checkRaces(const LoopNest &nest, DiagReport &out)
{
    if (!nest.op || nest.op->isPlaceholder())
        return;
    const auto *op = static_cast<const ComputeOp *>(nest.op.get());
    const IndexAnalysis &ia = op->indexAnalysis();

    // FT-RACE-001: a reduce iteration bound to concurrent hardware.
    for (const SubLoop &l : nest.loops) {
        if (!l.origin || l.origin->kind != IterKind::Reduce)
            continue;
        if (l.extent > 1 && isConcurrentAnno(l.anno)) {
            out.add({kRaceReduceParallel, Severity::Error, l.name,
                     axisAccess(op, l.origin),
                     "reduce axis '" + l.origin->name + "' sub-loop '" +
                         l.name + "' carries annotation '" +
                         annoName(l.anno) +
                         "': concurrent iterations accumulate into the "
                         "same output element (write-write race)"});
        }
    }

    // Group sub-loops by their original axis: the op's slots first,
    // then any foreign origin in the order it appears.
    RaceScratch &scratch = raceScratch();
    std::vector<AxisLoops> &axes = scratch.axes;
    axes.assign(ia.numSlots(), AxisLoops{});
    for (size_t s = 0; s < axes.size(); ++s)
        axes[s].origin = ia.slotVar(s);
    scratch.axisOf.clear();
    for (const SubLoop &l : nest.loops) {
        if (!l.origin)
            continue;
        size_t idx = static_cast<size_t>(ia.slotOf(l.origin));
        if (idx >= ia.numSlots()) {
            idx = ia.numSlots();
            while (idx < axes.size() && axes[idx].origin != l.origin)
                ++idx;
            if (idx == axes.size()) {
                axes.push_back(AxisLoops{});
                axes.back().origin = l.origin;
            }
        }
        scratch.axisOf.push_back(static_cast<uint32_t>(idx));
        AxisLoops &a = axes[idx];
        ++a.count;
        int64_t reach = (l.extent - 1) * l.stride;
        a.lo += std::min<int64_t>(reach, 0);
        a.hi += std::max<int64_t>(reach, 0);
        a.tuples *= std::max<int64_t>(l.extent, 1);
        a.anyConcurrent =
            a.anyConcurrent || (l.extent > 1 && isConcurrentAnno(l.anno));
    }
    // Bucket the sub-loops by axis, keeping nest order within each.
    uint32_t offset = 0;
    for (AxisLoops &a : axes) {
        a.begin = offset;
        offset += a.count;
        a.count = 0;
    }
    scratch.byAxis.resize(offset);
    size_t next = 0;
    for (const SubLoop &l : nest.loops) {
        if (!l.origin)
            continue;
        AxisLoops &a = axes[scratch.axisOf[next++]];
        scratch.byAxis[a.begin + a.count++] = &l;
    }

    for (const AxisLoops &a : axes) {
        // FT-RACE-002/003: stride aliasing on output-writing (spatial)
        // axes. Reduce-axis aliasing double-counts terms but never adds
        // a writer, so it is reported through coverage below instead.
        if (a.origin->kind == IterKind::Spatial) {
            if (const SubLoop *offender =
                    findAlias(scratch.byAxis.data() + a.begin, a.count,
                              scratch.sorted)) {
                std::string what =
                    "sub-loops of spatial axis '" + a.origin->name +
                    "' alias: stride " + std::to_string(offender->stride) +
                    " of '" + offender->name +
                    "' is covered by the span of the inner sub-loops, so "
                    "distinct iterations map to the same output element";
                if (a.anyConcurrent) {
                    out.add({kRaceStrideAlias, Severity::Error,
                             offender->name, axisAccess(op, a.origin),
                             what + " (concurrent write-write race)"});
                } else {
                    out.add({kRaceSerialAlias, Severity::Warning,
                             offender->name, axisAccess(op, a.origin),
                             what + " (serial repeated write)"});
                }
            }
        }

        // FT-COV-001: the reachable set must cover [0, extent). The
        // reachable-count bound is min(#tuples, span width); either one
        // falling short proves some original iteration never runs.
        int64_t extent = a.origin->extent;
        int64_t span = a.hi - a.lo + 1;
        int64_t reachable = std::min<int64_t>(a.tuples, span);
        if (a.lo > 0 || a.hi < extent - 1 || reachable < extent) {
            const char *consequence =
                a.origin->kind == IterKind::Spatial
                    ? "some output elements are never written"
                    : "some reduction terms are never accumulated";
            out.add({kCovUnderCoverage, Severity::Error,
                     a.count ? scratch.byAxis[a.begin]->name
                             : std::string(),
                     axisAccess(op, a.origin),
                     "sub-loops of axis '" + a.origin->name + "' reach " +
                         std::to_string(reachable) + " of " +
                         std::to_string(extent) + " iterations ([" +
                         std::to_string(a.lo) + ", " +
                         std::to_string(a.hi) + "]): " + consequence});
        }
    }
}

} // namespace verify
} // namespace ft
