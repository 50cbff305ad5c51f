/**
 * @file
 * Folding a trace timeline into a run report: a per-phase time
 * breakdown (simulated seconds and event counts per span name) and the
 * best-GFLOPS-vs-trials curve — the data series behind the paper's
 * Fig. 7 (performance vs. optimization time).
 *
 * Span nesting is allowed (a `step` span contains `batch_evaluate`
 * spans); each phase accumulates its own begin→end sim-clock deltas, so
 * nested phases are reported independently rather than subtracted from
 * their parent.
 */
#ifndef FLEXTENSOR_OBS_TRACE_REPORT_H
#define FLEXTENSOR_OBS_TRACE_REPORT_H

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace ft {

/** Accumulated time and event counts of one span/point name. */
struct PhaseBreakdown
{
    std::string name;
    uint64_t spans = 0;      ///< completed begin/end pairs
    uint64_t points = 0;     ///< point events of this name
    double simSeconds = 0.0; ///< sum of span durations on the sim clock
    /** Sum of wall nanoseconds carried on end events (`ns` attribute;
     *  emitted by wall-profiled runs for `eval.decode`, `eval.lower`,
     *  `q_forward_batch`, `q_train` and `space_build`). Zero for
     *  unprofiled traces. Concurrent searches (graph::tuneDag) each add
     *  their own, so a graph trace's sums can exceed its wall time. */
    uint64_t wallNs = 0;
};

/** Admission-control activity folded from `admission.*` point events. */
struct ServeBreakdown
{
    uint64_t admitted = 0;
    uint64_t shed = 0;           ///< queue-full + deadline sheds
    uint64_t brownouts = 0;      ///< requests deflected to cache-only
    uint64_t breakerRejects = 0; ///< requests refused by an open breaker
    uint64_t breakerOpens = 0;
    uint64_t breakerCloses = 0;
    /** Queue-depth-at-decision occurrences, sorted by depth. */
    std::vector<std::pair<int64_t, uint64_t>> queueDepths;
    /** Rejection reasons by structured code (FT-ADM-*), sorted. */
    std::vector<std::pair<std::string, uint64_t>> reasons;

    bool any() const
    {
        return admitted || shed || brownouts || breakerRejects ||
               breakerOpens || breakerCloses;
    }
};

/** One fused subgraph folded from a `graph.subgraph` span. */
struct GraphSubgraph
{
    std::string name; ///< anchor (or first member) name
    int64_t members = 0;
    bool tuned = false;   ///< has an anchor (searched or reused)
    /** Group whose report this one repeats (`reused_from`), or -1. */
    int64_t reusedFrom = -1;
    double seconds = 0.0; ///< stitched group estimate
    int64_t trafficBytes = 0;
    int64_t ephemeralBytes = 0;
};

/** Graph-level scheduling folded from `graph_run`/`graph.*` events. */
struct GraphBreakdown
{
    uint64_t runs = 0; ///< graph_run meta events
    std::string dag;
    uint64_t fingerprint = 0;
    int64_t nodes = 0;  ///< compute nodes in the DAG
    int64_t groups = 0; ///< fusion groups the partitioner chose
    int64_t trafficBytes = 0;
    int64_t ephemeralBytes = 0;
    std::vector<GraphSubgraph> subgraphs;

    bool any() const { return runs > 0; }
};

/** Learned-cost-model activity folded from `costmodel.*` events. */
struct CostModelBreakdown
{
    uint64_t warmStarts = 0;  ///< explorer seedings ranked by the model
    uint64_t pruneEvents = 0; ///< costmodel.prune point events
    uint64_t kept = 0;        ///< candidates surviving pruning
    uint64_t dropped = 0;     ///< candidates pruned away
    uint64_t refits = 0;      ///< completed costmodel.train spans

    bool any() const { return warmStarts || pruneEvents || refits; }
};

/** One certified schedule/partition folded from a `certificate` point. */
struct CertificateEntry
{
    std::string op;      ///< operator (or DAG) the certificate covers
    std::string verdict; ///< Proven / Refuted / Unknown
    int64_t obligations = 0;
    int64_t refuted = 0; ///< refuted obligations (or groups, for DAGs)
    int64_t unknown = 0; ///< undecided obligations (or groups)
};

/** Legality-certificate activity folded from `certificate` events. */
struct CertificateBreakdown
{
    uint64_t proven = 0;  ///< certificates with every obligation proven
    uint64_t refuted = 0; ///< certificates refuting >= 1 obligation
    uint64_t unknown = 0; ///< certificates left undecided
    std::vector<CertificateEntry> entries; ///< in emission order

    bool any() const { return proven || refuted || unknown; }
};

/** Everything trace_report derives from one timeline. */
struct TraceReport
{
    /** Run metadata (empty when the trace lacks a meta event). */
    std::string op, device, method;
    uint64_t seed = 0;

    uint64_t events = 0; ///< total timeline events
    int trials = 0;      ///< eval commits seen
    double bestGflops = 0.0;
    double simSeconds = 0.0; ///< sim clock of the last event

    /** Sorted by descending simSeconds, then name. */
    std::vector<PhaseBreakdown> phases;

    /**
     * Verifier rejections by diagnostic code, folded from
     * "verify.reject" point events (sorted by code). Empty for traces
     * recorded without wall profiling or with no rejected schedules.
     */
    std::vector<std::pair<std::string, uint64_t>> verifyRejects;

    /** (trial index 1.., best-so-far GFLOPS) — the Fig. 7 series. */
    std::vector<std::pair<int, double>> curve;

    /** Admission-control section (empty for pure exploration traces). */
    ServeBreakdown serve;

    /** Graph-scheduling section (empty for single-op traces). */
    GraphBreakdown graph;

    /** Cost-model section (empty when no model was attached). */
    CostModelBreakdown costModel;

    /** Certificate section (empty unless a run requested --certify). */
    CertificateBreakdown certificates;
};

/** Fold parsed events into a report. */
TraceReport foldTrace(const std::vector<ParsedTraceEvent> &events);

/** Load + fold a JSONL trace file; nullopt when unreadable/malformed. */
std::optional<TraceReport> loadTraceReport(const std::string &path);

/** Human-readable rendering (the `trace-report` tool's output). */
std::string renderTraceReport(const TraceReport &report,
                              int curvePoints = 12);

/** Machine-readable JSON (full curve; for regenerating Fig. 7). */
std::string traceReportJson(const TraceReport &report);

} // namespace ft

#endif // FLEXTENSOR_OBS_TRACE_REPORT_H
