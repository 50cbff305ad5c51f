/**
 * @file
 * The top-level tuning entry point: front-end analysis, space generation,
 * back-end exploration, and final schedule generation in one call
 * (Algorithm 1 of the paper, specialized to the anchor node with helper
 * nodes inlined).
 */
#ifndef FLEXTENSOR_EXPLORE_TUNER_H
#define FLEXTENSOR_EXPLORE_TUNER_H

#include <memory>
#include <optional>
#include <string>

#include "explore/explorer.h"
#include "ir/graph.h"
#include "schedule/serialize.h"
#include "space/builder.h"

namespace ft {

namespace verify {
struct ScheduleCertificate;
} // namespace verify

/** Tuning options. */
struct TuneOptions
{
    /** Method::AutoTvm searches the template-restricted space
     *  (SpaceOptions::templateRestricted), every other method the full
     *  one. */
    Method method = Method::QMethod;
    ExploreOptions explore;
    /**
     * Optional persistent tuning cache. A hit whose config is still
     * representable in the space skips exploration entirely; after a
     * search the best result is stored back when it is valid.
     */
    TuningCache *cache = nullptr;
    /**
     * Attach a transformation-legality certificate
     * (analysis/verify/certificate.h) for the winning schedule to the
     * report, and emit a "certificate" trace point when a trace sink is
     * attached. Read-only over the search: certification never changes
     * the tuned result (the determinism digests pin this).
     */
    bool certify = false;
};

/** Outcome of tuning one operator. */
struct TuneReport
{
    OpConfig config;          ///< best schedule found
    /**
     * Whether `config` is a usable schedule: it passed the verifier and
     * the device model. A search that found no such point reports
     * false; its gflops and kernelSeconds then describe nothing.
     */
    bool valid = false;
    double gflops = 0.0;      ///< modeled performance of the best schedule
    double kernelSeconds = 0.0;
    double simExploreSeconds = 0.0;
    int trials = 0;
    double spaceSize = 0.0;
    std::string device;
    std::vector<std::pair<double, double>> curve;
    bool fromCache = false; ///< true when served from the tuning cache
    /**
     * True when the run hit its simulated deadline and returned its
     * best-so-far result instead of finishing all trials.
     */
    bool degraded = false;
    bool resumed = false; ///< exploration resumed from a checkpoint
    /** Fault-path counters (zero without fault injection). */
    uint64_t failures = 0;
    uint64_t retries = 0;
    uint64_t timeouts = 0;
    uint64_t quarantined = 0;
    /** Legality certificate of `config` (null unless TuneOptions::certify). */
    std::shared_ptr<const verify::ScheduleCertificate> certificate;
};

/**
 * A valid report answered without a search (a tuning-cache hit, a
 * tuneDag repeat): fromCache set; no trials, curve or simulated explore
 * time.
 */
TuneReport cachedReport(const OpConfig &config, double gflops,
                        double kernelSeconds, double spaceSize,
                        const std::string &device);

/** Tune the mini-graph rooted at `output` for `target` (anchor node). */
TuneReport tune(const Tensor &output, const Target &target,
                const TuneOptions &options = {});

/** Tune one specific compute node. */
TuneReport tuneOp(const Operation &anchor, const Target &target,
                  const TuneOptions &options = {});

/**
 * Modeled kernel seconds of the anchor's expert schedule (expertConfig,
 * sim/library_model.h), or nullopt when the model rejects it too. A
 * node whose search found no valid schedule is charged this by
 * tuneGraph and graph::tuneDag, never a free kernel.
 */
std::optional<double> expertKernelSeconds(const Operation &anchor,
                                          const Target &target);

/**
 * Certify `report.config` on the anchor of the mini-graph rooted at
 * `output` and attach the certificate, as tune() does for its own
 * reports: a no-op unless TuneOptions::certify, with a "certificate"
 * trace point at simulated time `sim` when a trace sink is attached.
 * For callers that answer a request without running tune().
 */
void certifyReport(TuneReport &report, const Tensor &output,
                   const Target &target, const TuneOptions &options,
                   double sim);

/** Per-node results of whole-graph scheduling. */
struct GraphTuneReport
{
    /** One entry per scheduled (non-inlinable) compute node, bottom-up. */
    std::vector<std::pair<std::string, TuneReport>> nodes;
    /**
     * Sum of the nodes' kernel seconds. A node whose search found no
     * valid schedule counts its expertKernelSeconds(); infinite when
     * the model rejects that too (no modeled schedule runs the node).
     */
    double totalKernelSeconds = 0.0;
    double simExploreSeconds = 0.0;
    /** Nodes charged their expert schedule because the search failed. */
    int fallbackNodes = 0;
};

/**
 * Algorithm 1: inline elementwise helpers, traverse the mini-graph in
 * post order, and schedule every remaining compute node for the target.
 */
GraphTuneReport tuneGraph(const Tensor &root, const Target &target,
                          const TuneOptions &options = {});

} // namespace ft

#endif // FLEXTENSOR_EXPLORE_TUNER_H
