/**
 * @file
 * Per-hardware schedule generators (Section 5.3 of the paper).
 *
 * Each generator lowers (anchor compute op, config) to an annotated loop
 * nest following the target's fixed schedule skeleton:
 *  - CPU:  multi-level tiling, outer-loop fusion + parallelization,
 *          innermost-loop vectorization, register blocking (Figure 4a);
 *  - GPU:  block/thread binding, virtual threads, shared-memory caching of
 *          inputs, register tile for outputs (Figure 4b);
 *  - FPGA: round/PE decomposition feeding the three-stage read-compute-write
 *          pipeline with row buffering and memory partitioning (Figure 4c).
 *
 * The returned features drive the analytical device models in sim/.
 */
#ifndef FLEXTENSOR_SCHEDULE_GENERATOR_H
#define FLEXTENSOR_SCHEDULE_GENERATOR_H

#include "ir/operation.h"
#include "schedule/config.h"
#include "schedule/loop_nest.h"
#include "sim/hw_spec.h"

namespace ft {

/** Tiling depths used by each target's skeleton. */
inline constexpr int kGpuSpatialLevels = 4;
inline constexpr int kGpuReduceLevels = 3;
inline constexpr int kCpuSpatialLevels = 3;
inline constexpr int kCpuReduceLevels = 2;
inline constexpr int kFpgaSpatialLevels = 2;
inline constexpr int kFpgaReduceLevels = 2;

/** Lower a config for a CUDA-style GPU. */
Scheduled generateGpu(const Operation &anchor, const OpConfig &config,
                      const GpuSpec &spec);

/** Lower a config for a multicore CPU. */
Scheduled generateCpu(const Operation &anchor, const OpConfig &config,
                      const CpuSpec &spec);

/** Lower a config for the FPGA three-stage pipeline. */
Scheduled generateFpga(const Operation &anchor, const OpConfig &config,
                       const FpgaSpec &spec);

/** Dispatch on target kind. */
Scheduled generate(const Operation &anchor, const OpConfig &config,
                   const Target &target);

/**
 * generate*() into a caller-owned Scheduled, reusing its loop-nest and
 * feature storage across calls — the evaluation hot loop lowers
 * thousands of configs per run. The sub-loops are written in place
 * (names come precomputed from the operator's IndexAnalysis) and the
 * footprint intervals live in per-thread buffers, so once the operator's
 * analysis is built and `out` and the thread are warm, a call allocates
 * nothing (test_index_analysis pins this for a GPU and a CPU point).
 * `out` is fully overwritten.
 */
void generateGpuInto(const Operation &anchor, const OpConfig &config,
                     const GpuSpec &spec, Scheduled &out);
void generateCpuInto(const Operation &anchor, const OpConfig &config,
                     const CpuSpec &spec, Scheduled &out);
void generateFpgaInto(const Operation &anchor, const OpConfig &config,
                      const FpgaSpec &spec, Scheduled &out);
void generateInto(const Operation &anchor, const OpConfig &config,
                  const Target &target, Scheduled &out);

/**
 * A default (untuned but valid) config for the target: splits every loop
 * with trailing factors of 1. Used as a fallback and as the naive baseline.
 */
OpConfig defaultConfig(const Operation &anchor, const Target &target);

} // namespace ft

#endif // FLEXTENSOR_SCHEDULE_GENERATOR_H
