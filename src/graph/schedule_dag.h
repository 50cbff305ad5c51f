/**
 * @file
 * Graph-level tuning: partition the DAG, tune each subgraph's anchor
 * through the existing explorers, and stitch the results.
 *
 * `tuneDag` is Algorithm 1 lifted one level: instead of scheduling a
 * fixed per-layer decomposition, it first runs the fusion partitioner
 * (beam search over the roofline model), or takes a partition the
 * caller chose, then lowers each group's heavy anchor to IR (one
 * conv/dense operator with its own space, explorers and tuning-cache
 * key, exactly as tune() sees the layer alone) and charges each group
 * max(tuned compute, roofline memory). Anchor-free groups (standalone
 * pooling, and unfused bias/ReLU) are bandwidth-bound and take their
 * roofline seconds directly. The lowered anchors and their spaces come
 * from process-wide stores (lowerAnchor, buildSpaceObserved), so a call
 * that repeats an earlier call's layers builds neither again; the
 * partition is computed on every call.
 *
 * Repeated anchors are tuned once per call. A search is a pure function
 * of the anchor's OpKey, the target and the options unless a learned
 * cost model carries state between runs; a tuning cache keys on the
 * OpKey too (workloadKey), so distinct anchors never share an entry,
 * and with ExploreOptions::checkpointPath set each search snapshots to
 * and resumes from its own file (searchCheckpointPath,
 * explore/checkpoint.h: `<checkpointPath>.<its workloadKey as 16 hex
 * digits>`, plus `.<n>` for the n-th repeat search of one anchor that a
 * cost-model run makes). A group whose lowered anchor keys like an earlier
 * group's reuses that report as a tuning-cache hit would (cachedReport):
 * same config, gflops, kernelSeconds, spaceSize and device, fromCache
 * set, no trials, curve or simulated explore time. Trials and
 * simExploreSeconds therefore count only searches that ran. With
 * certify, a reused group still certifies its own lowered anchor.
 *
 * The same purity makes the distinct searches independent, so they run
 * concurrently: the calling thread and the workers of one process-wide
 * pool, built on first use, claim them one at a time, one runner per
 * two hardware threads. Their reports are then stitched in group
 * order, so every DagTuneReport (sums included) is bit-identical to a
 * one-at-a-time run. Runs with a cost model search one at a time, in
 * group order. Concurrent calls share the pool; a call must
 * not come from a search running on it.
 *
 * Tracing: a `graph_run` meta line, one `graph.partition` span around
 * the search, and one `graph.subgraph` span per group (the per-anchor
 * `run`/`space_build`/`report` events nest inside as usual), so
 * `trace-report` can fold graph runs like any other. Each search
 * records into its own recorder, spliced into its group's span with
 * TraceRecorder::append, so the timeline is byte-identical to a
 * sequential run. A reused group's span holds one `report` point with
 * `cached: true` and `reused_from` (the group index) instead of a run.
 * With `ObsContext::wallProfile` the partitioner's wall time is added
 * to the `graph.partition.ns` counter, the concurrent search phase's to
 * `graph.search.ns`, and each reused group to `graph.anchors_reused`;
 * the trace itself carries none of them. The searches' own `eval.*.ns`
 * and `q.*.ns` counters then sum across workers and can exceed the
 * call's wall time.
 */
#ifndef FLEXTENSOR_GRAPH_SCHEDULE_DAG_H
#define FLEXTENSOR_GRAPH_SCHEDULE_DAG_H

#include <memory>

#include "analysis/verify/certificate.h"
#include "explore/tuner.h"
#include "graph/partition.h"

namespace ft {
namespace graph {

/** Outcome of tuning one fusion group. */
struct SubgraphReport
{
    std::string name;         ///< anchor name, or first member's name
    std::vector<int> members; ///< DAG node ids in the group
    int anchor = -1;          ///< heavy node id, -1 if bandwidth-only
    bool tuned = false;       ///< anchor has a report (searched or reused)
    TuneReport report;        ///< valid when tuned
    /** Index of the earlier group whose report this repeats, or -1. */
    int reusedFrom = -1;
    /**
     * The anchor's search found no valid schedule (report.valid is
     * false), so the group is charged its expertKernelSeconds()
     * (explore/tuner.h) instead.
     */
    bool fallback = false;
    GroupCost cost;           ///< roofline score of the group
    double seconds = 0.0;     ///< charged group time
};

/** Outcome of tuning a whole DAG. */
struct DagTuneReport
{
    std::string dagName;
    std::string device;
    uint64_t fingerprint = 0; ///< ComputeDag::fingerprint()
    Partition partition;
    std::vector<SubgraphReport> groups;
    double totalSeconds = 0.0;
    double simExploreSeconds = 0.0;
    /** Modeled DRAM traffic of the chosen partition. */
    int64_t trafficBytes = 0;
    /** Intermediate bytes that never touch DRAM. */
    int64_t ephemeralBytes = 0;
    /**
     * Fusion-legality certificate of the chosen partition (null unless
     * TuneOptions::certify). Per-anchor schedule certificates ride on
     * each group's TuneReport.
     */
    std::shared_ptr<const verify::PartitionCertificate> certificate;
};

/** Partition `dag` and tune every subgraph for `target`. */
DagTuneReport tuneDag(const ComputeDag &dag, const Target &target,
                      const TuneOptions &options = {},
                      const PartitionOptions &partitionOptions = {});

/**
 * Tune every subgraph of an already chosen partition of `dag` (e.g.
 * epiloguePartition or nonePartition); the trace and report are those
 * of the overload above with `partition` in place of its search.
 */
DagTuneReport tuneDag(const ComputeDag &dag, const Target &target,
                      Partition partition, const TuneOptions &options);

} // namespace graph
} // namespace ft

#endif // FLEXTENSOR_GRAPH_SCHEDULE_DAG_H
