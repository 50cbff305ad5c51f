/**
 * @file
 * Static schedule verifier: legality proofs over lowered loop nests.
 *
 * FlexTensor's front-end is a static analyzer; this module extends the
 * same discipline to the *back end* of the pipeline. Before a lowered
 * schedule is costed, executed, or emitted, three independent passes
 * prove (conservatively) that it is legal:
 *
 *  1. Dependence/race detection (`checkRaces`, FT-RACE-* and FT-COV-*):
 *     every sub-loop with a concurrent annotation (Parallel, Vectorize,
 *     BlockX, VThread, ThreadX, PE) must carry no cross-iteration write
 *     conflict. A Reduce-origin axis bound to a concurrent annotation is
 *     a write-write race by construction; spatial sub-loops whose
 *     strides alias (the mixed-radix map back to the original index is
 *     non-injective) race whenever a concurrent sub-loop is involved.
 *     The same walk proves write coverage: the sub-loops of each axis
 *     must reconstruct every original iteration.
 *
 *  2. Access-bounds proofs (`checkAccessBounds`, FT-OOB-*): interval
 *     analysis (analysis/bounds.h) over the variable ranges the nest
 *     actually realizes, with guard-aware refinement — an access inside
 *     the taken branch of a `select` is analyzed under the constraints
 *     the condition implies (this is what keeps inlined zero-padding,
 *     whose raw index intervals extend past the data, provably in
 *     bounds). Every tensor read and the output write must stay within
 *     the buffer extents.
 *
 *  3. Resource-legality lint (`checkResources`, FT-RES-*): the device
 *     limits previously enforced by ad-hoc `NestFeatures::valid` checks
 *     in the generators (threads/block, shared memory, registers,
 *     virtual threads, PE/DSP budget, BRAM capacity), plus advisory
 *     lint the old heuristics never looked at (vector-lane fill, FPGA
 *     partition divisibility).
 *
 * The passes only read the nest; they never throw on malformed
 * schedules — illegality is reported as diagnostics, not assertions.
 * `verifySchedule` is deliberately deterministic and cheap: the
 * evaluation hot loop runs it per candidate point. The race and bounds
 * passes read the operator's IndexAnalysis (analysis/index_analysis.h),
 * so a trial does interval arithmetic over slot arrays only, and builds
 * a diagnostic's strings only when it fires.
 */
#ifndef FLEXTENSOR_ANALYSIS_VERIFY_VERIFY_H
#define FLEXTENSOR_ANALYSIS_VERIFY_VERIFY_H

#include "analysis/verify/diag.h"
#include "schedule/config.h"
#include "schedule/loop_nest.h"
#include "sim/hw_spec.h"

namespace ft {
namespace verify {

/** Whether a loop annotation executes iterations concurrently. */
inline bool
isConcurrentAnno(LoopAnno anno)
{
    switch (anno) {
      case LoopAnno::Parallel:
      case LoopAnno::Vectorize:
      case LoopAnno::BlockX:
      case LoopAnno::VThread:
      case LoopAnno::ThreadX:
      case LoopAnno::PE:
        return true;
      case LoopAnno::Serial:
      case LoopAnno::Unroll:
        return false;
    }
    return false;
}

/** Lower-case annotation name used in diagnostic messages. */
const char *annoName(LoopAnno anno);

/**
 * Dependence/race detection and write-coverage proof over the nest.
 * Appends FT-RACE-001/002/003 and FT-COV-001 findings to `out`.
 */
void checkRaces(const LoopNest &nest, DiagReport &out);

/**
 * Guard-aware access-bounds proof: every tensor access (and the output
 * write) must stay within its buffer extents under the variable ranges
 * the nest realizes. Appends FT-OOB-001/002 findings to `out`.
 */
void checkAccessBounds(const LoopNest &nest, DiagReport &out);

/**
 * The Error-severity resource checks (device limits) that fail for
 * `features` on `target`, one bit per check in legacy order. Zero
 * means the features fit the device.
 */
uint32_t resourceErrors(const NestFeatures &features, const Target &target);

/**
 * Resource-legality lint against the target's device limits. The six
 * Error checks reproduce the legacy generator heuristics bit-for-bit
 * (same predicates, same order, same messages); the Warning checks are
 * new advisory lint. `config` may be null (the warnings are skipped
 * without it).
 */
void checkResources(const LoopNest &nest, const NestFeatures &features,
                    const Target &target, const OpConfig *config,
                    DiagReport &out);

/**
 * checkResources of a lowered schedule: the Error checks come from the
 * generator's recorded lint (Scheduled::resourceErrors) when it linted
 * for `target`, so a trial runs them once.
 */
void checkResources(const Scheduled &s, const Target &target,
                    const OpConfig *config, DiagReport &out);

/** Races + bounds: the target-independent structural legality checks. */
void checkStructural(const LoopNest &nest, DiagReport &out);

/** All three passes, appending into a caller-owned (reusable) report. */
void verifyScheduleInto(const Scheduled &s, const Target &target,
                        const OpConfig *config, DiagReport &out);

/** All three passes into a fresh report. */
DiagReport verifySchedule(const Scheduled &s, const Target &target,
                          const OpConfig *config = nullptr);

/**
 * Generator compatibility shim: run the Error-severity resource checks
 * once, record them on `s` for checkResources, and derive
 * `features.valid` / `features.invalidReason` exactly as the legacy
 * in-generator heuristics did (first failing check wins, legacy message
 * text). Downstream consumers of NestFeatures are unaffected.
 */
void applyResourceValidity(Scheduled &s, const Target &target);

} // namespace verify
} // namespace ft

#endif // FLEXTENSOR_ANALYSIS_VERIFY_VERIFY_H
