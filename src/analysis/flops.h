/**
 * @file
 * FLOP accounting for compute nodes and graphs.
 */
#ifndef FLEXTENSOR_ANALYSIS_FLOPS_H
#define FLEXTENSOR_ANALYSIS_FLOPS_H

#include <cstdint>

#include "ir/graph.h"

namespace ft {

/**
 * Floating-point operations performed by one compute node: the iteration
 * count (spatial x reduce) times the arithmetic ops in the body, plus one
 * accumulate per reduce iteration.
 */
double flopsOf(const Operation &op);

/** flopsOf of a compute node held by reference. */
double flopsOf(const ComputeOp &op);

/** Total FLOPs of every compute node in the graph. */
double flopsOf(const MiniGraph &graph);

/**
 * FLOPs of the dominant node only — the number benchmarks report GFLOPS
 * against (helper pad/dilate nodes are bookkeeping, not useful work).
 */
double anchorFlops(const MiniGraph &graph);

} // namespace ft

#endif // FLEXTENSOR_ANALYSIS_FLOPS_H
