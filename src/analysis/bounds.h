/**
 * @file
 * Interval analysis of index expressions.
 *
 * Given ranges for iteration variables, compute conservative [min, max]
 * bounds of an integer index expression, and from them tile footprints
 * (how much of each input a block/tile touches), which determine
 * shared-memory usage, cache fit, and DRAM traffic.
 *
 * These tree walks are the reference semantics: the per-trial passes run
 * the same arithmetic as flattened IntervalPrograms of the operator's
 * IndexAnalysis (analysis/index_analysis.h), and tests hold the two to
 * identical results.
 */
#ifndef FLEXTENSOR_ANALYSIS_BOUNDS_H
#define FLEXTENSOR_ANALYSIS_BOUNDS_H

#include <cstdint>
#include <unordered_map>

#include "ir/expr.h"

namespace ft {

/** Inclusive integer interval. */
struct Interval
{
    int64_t lo = 0;
    int64_t hi = 0;

    /** Number of integers covered. */
    int64_t extent() const { return hi - lo + 1; }
};

/** Per-variable value ranges (inclusive). */
using VarRanges = std::unordered_map<const IterVarNode *, Interval>;

/**
 * Conservative bounds of an integer expression under the given variable
 * ranges. Variables absent from `ranges` default to their full extent
 * [0, extent-1]. Float-typed nodes (Access, FloatImm) must not appear.
 */
Interval boundsOf(const Expr &e, const VarRanges &ranges);

/**
 * Footprint (number of distinct elements, conservatively an axis-aligned
 * box) of one tensor access under the given variable ranges.
 */
int64_t accessFootprint(const ExprNode &acc, const VarRanges &ranges);

} // namespace ft

#endif // FLEXTENSOR_ANALYSIS_BOUNDS_H
