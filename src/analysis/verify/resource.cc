/**
 * @file
 * Resource-legality lint (FT-RES-*): device limits over the features a
 * generator extracted from the nest.
 *
 * The Error checks reproduce the legacy `NestFeatures::valid` heuristics
 * that used to live inline in generator_gpu/fpga.cc — same predicates,
 * same order, same message text — so the generator shim
 * (applyResourceValidity) and the old if-chains are interchangeable and
 * the exploration digests pinned by test_determinism stay put. The
 * generator runs them once and records the result on the Scheduled;
 * checkResources reuses it. The Warning checks are new advisory lint
 * the old heuristics never ran.
 */
#include <bit>
#include <iterator>
#include <string>

#include "analysis/verify/verify.h"

namespace ft {
namespace verify {

namespace {

/**
 * The Error checks in legacy order, indexed by their resourceErrors
 * bit; messages must stay bit-identical to the old generator strings
 * (tests match on them).
 */
struct ResourceCheck
{
    const char *code;
    const char *message;
};

constexpr ResourceCheck kResourceChecks[] = {
    {kResThreadsPerBlock, "too many threads per block"},
    {kResSharedMem, "shared memory tile exceeds per-block limit"},
    {kResRegisters, "register tile exceeds per-thread budget"},
    {kResVthreads, "too many virtual threads"},
    {kResPeBudget, "PE count exceeds DSP budget"},
    {kResBramBudget, "on-chip buffer exceeds BRAM capacity"},
};

void
checkFpgaWarnings(const OpConfig *config, DiagReport &out)
{
    if (config && config->fpgaPartition > 1 &&
        config->fpgaBufferRows % config->fpgaPartition != 0) {
        out.add({kResPartition, Severity::Warning, "", "",
                 "memory partition factor " +
                     std::to_string(config->fpgaPartition) +
                     " does not divide the " +
                     std::to_string(config->fpgaBufferRows) +
                     " buffered rows: banks fill unevenly"});
    }
}

void
checkCpuWarnings(const NestFeatures &f, const CpuSpec &spec,
                 const OpConfig *config, DiagReport &out)
{
    if (!config)
        return;
    if (config->vectorizeLen > spec.vecLanes) {
        out.add({kResVectorLanes, Severity::Warning, "", "",
                 "requested vector length " +
                     std::to_string(config->vectorizeLen) + " exceeds the " +
                     std::to_string(spec.vecLanes) + " SIMD lanes of " +
                     spec.name});
    } else if (f.vecLen < config->vectorizeLen) {
        out.add({kResVectorLanes, Severity::Warning, "", "",
                 "vectorize length " +
                     std::to_string(config->vectorizeLen) +
                     " is not filled by the innermost spatial extent "
                     "(only " +
                     std::to_string(f.vecLen) + " lanes used)"});
    }
}

void
appendResourceDiags(uint32_t errors, const NestFeatures &f,
                    const Target &target, const OpConfig *config,
                    DiagReport &out)
{
    for (size_t bit = 0; bit < std::size(kResourceChecks); ++bit) {
        if (errors & (1u << bit)) {
            out.add({kResourceChecks[bit].code, Severity::Error, "", "",
                     kResourceChecks[bit].message});
        }
    }
    // Warnings follow every Error, as in the legacy per-device order.
    if (target.kind == DeviceKind::Cpu)
        checkCpuWarnings(f, *target.cpu, config, out);
    else if (target.kind == DeviceKind::Fpga)
        checkFpgaWarnings(config, out);
}

} // namespace

uint32_t
resourceErrors(const NestFeatures &f, const Target &target)
{
    uint32_t mask = 0;
    switch (target.kind) {
      case DeviceKind::Gpu: {
        const GpuSpec &spec = *target.gpu;
        if (f.threadsPerBlock > spec.maxThreadsPerBlock)
            mask |= 1u << 0;
        if (f.sharedBytesPerBlock > spec.sharedMemPerBlock)
            mask |= 1u << 1;
        if (f.regsPerThread > spec.regsPerThreadMax)
            mask |= 1u << 2;
        if (f.vthreads > 64)
            mask |= 1u << 3;
        break;
      }
      case DeviceKind::Cpu:
        break; // no CPU device limit gates validity
      case DeviceKind::Fpga: {
        const FpgaSpec &spec = *target.fpga;
        if (f.pe > spec.maxPe())
            mask |= 1u << 4;
        if (f.bufferBytes > spec.bramBytes)
            mask |= 1u << 5;
        break;
      }
    }
    return mask;
}

void
checkResources(const LoopNest &nest, const NestFeatures &features,
               const Target &target, const OpConfig *config,
               DiagReport &out)
{
    (void)nest; // limits are proven on the extracted features
    appendResourceDiags(resourceErrors(features, target), features, target,
                        config, out);
}

void
checkResources(const Scheduled &s, const Target &target,
               const OpConfig *config, DiagReport &out)
{
    // The generator's verdict for this target stands in for running
    // the Error checks again.
    appendResourceDiags(s.lintedFor == target
                            ? s.resourceErrors
                            : resourceErrors(s.features, target),
                        s.features, target, config, out);
}

void
applyResourceValidity(Scheduled &s, const Target &target)
{
    const uint32_t errors = resourceErrors(s.features, target);
    s.resourceErrors = errors;
    s.lintedFor = target;
    s.features.valid = errors == 0;
    s.features.invalidReason =
        errors ? kResourceChecks[std::countr_zero(errors)].message : "";
}

} // namespace verify
} // namespace ft
