/**
 * @file
 * Analytical device performance models.
 *
 * These replace real measurement on the paper's testbed (see DESIGN.md §2):
 * each model maps the static features of a lowered schedule to a predicted
 * execution time. The models are deterministic, non-convex functions of the
 * same knobs the explorer tunes, so they induce a realistic search
 * landscape (occupancy cliffs, cache-fit thresholds, bandwidth roofline,
 * parallelism/locality trade-offs).
 */
#ifndef FLEXTENSOR_SIM_PERF_MODEL_H
#define FLEXTENSOR_SIM_PERF_MODEL_H

#include <string>

#include "schedule/loop_nest.h"
#include "sim/hw_spec.h"

namespace ft {

/**
 * Performance value the evaluator assigns to a rejected schedule (one
 * the verifier or the model refuses).
 */
inline constexpr double kInvalidGflops = 1e-3;

/** Outcome of one model evaluation. */
struct PerfResult
{
    bool valid = false;
    std::string reason;   ///< why invalid (empty when valid)
    double seconds = 0.0; ///< predicted kernel time
    double gflops = 0.0;  ///< totalFlops / seconds / 1e9
};

/** Predict execution time of a GPU-lowered schedule. */
PerfResult gpuModelPerf(const NestFeatures &f, const GpuSpec &spec);

/** Predict execution time of a CPU-lowered schedule. */
PerfResult cpuModelPerf(const NestFeatures &f, const CpuSpec &spec);

/**
 * Predict execution time of an FPGA design with the paper's three-stage
 * pipeline model: T = rounds * max(R, C, W) (Section 5.2).
 */
PerfResult fpgaModelPerf(const NestFeatures &f, const FpgaSpec &spec);

/** Dispatch on the target kind. */
PerfResult modelPerf(const NestFeatures &f, const Target &target);

} // namespace ft

#endif // FLEXTENSOR_SIM_PERF_MODEL_H
