#include "graph/schedule_dag.h"

#include <algorithm>
#include <functional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "explore/checkpoint.h"
#include "graph/lower.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "schedule/serialize.h"
#include "support/logging.h"
#include "support/thread_pool.h"

namespace ft {
namespace graph {

namespace {

/**
 * True when tune() is a pure function of (anchor OpKey, target,
 * options): no learned cost model carries state from one run into the
 * next. A tuning cache keys on the OpKey, so it does not: a repeat
 * reuses what a sequential cache hit would give. Nor does a checkpoint,
 * since each search snapshots to a file of its own.
 */
bool
searchIsPure(const TuneOptions &options)
{
    return options.explore.costModel == nullptr;
}

/**
 * The pool that runs a DAG's anchor searches: with the calling thread,
 * which claims searches too, one runner per two hardware threads. A
 * call lasts until its slowest search ends, so each runner that the
 * host preempts holds up the whole call: one runner per hardware
 * thread is faster on an idle host, but its call times then follow
 * whatever else the host runs. Built on first use and kept for the
 * process, so a call never starts threads.
 */
ThreadPool &
searchPool()
{
    static ThreadPool pool(
        static_cast<int>(std::thread::hardware_concurrency() / 2));
    return pool;
}

/** One anchor search: its report and the trace it recorded. */
struct AnchorSearch
{
    TuneReport report;
    TraceRecorder trace;
};

/**
 * The body shared by both tuneDag overloads: `choose` yields the
 * partition inside the `graph.partition` span and wall counter.
 */
DagTuneReport
tuneChosen(const ComputeDag &dag, const Target &target,
           const TuneOptions &options,
           const std::function<Partition()> &choose)
{
    const ObsContext &obs = options.explore.obs;
    DagTuneReport rep;
    rep.dagName = dag.name;
    rep.device = target.deviceName();
    rep.fingerprint = dag.fingerprint();

    if (obs.trace) {
        obs.trace->meta(
            "graph_run",
            {tstr("dag", dag.name), tstr("device", rep.device),
             tstr("method", methodName(options.method)),
             tint("nodes", dag.numComputeNodes()),
             tint("fingerprint", static_cast<int64_t>(rep.fingerprint))});
        obs.trace->begin("graph.partition", 0.0);
    }
    // Wall attribution of the partitioner, like the evaluator's eval.*.ns
    // counters: opt-in, and never written to the sim-clocked trace.
    const StageTimer partitionTimer(obs, "graph.partition.ns");
    WallMark mark = partitionTimer.start();
    rep.partition = choose();
    partitionTimer.lap(mark);
    rep.trafficBytes = rep.partition.totalTrafficBytes;
    rep.ephemeralBytes = rep.partition.ephemeralBytes;
    if (obs.trace) {
        obs.trace->end(
            "graph.partition", 0.0,
            {tint("groups",
                  static_cast<int64_t>(rep.partition.groups.size())),
             tint("traffic_bytes", rep.trafficBytes),
             tint("ephemeral_bytes", rep.ephemeralBytes)});
    }
    if (options.certify) {
        auto cert = std::make_shared<verify::PartitionCertificate>(
            verify::certifyPartition(dag, rep.partition, target));
        if (obs.trace) {
            obs.trace->point(
                "certificate", 0.0,
                {tstr("op", dag.name),
                 tstr("verdict", verify::verdictName(cert->verdict)),
                 tint("obligations",
                      static_cast<int64_t>(cert->groups.size())),
                 tint("refuted",
                      cert->groupCount(verify::Verdict::Refuted)),
                 tint("unknown",
                      cert->groupCount(verify::Verdict::Unknown))});
        }
        rep.certificate = std::move(cert);
    }
    if (obs.metrics)
        obs.metrics->counter("graph.runs").add();
    Counter *anchors_reused = obs.wallProfile
                                  ? maybeCounter(obs.metrics,
                                                 "graph.anchors_reused")
                                  : nullptr;

    // Fetch every anchor's IR from the lowering store and decide which
    // groups search: all of them when runs carry state, else the first
    // group of each OpKey. Each search gets its own checkpoint file.
    const bool pure = searchIsPure(options);
    const size_t numGroups = rep.partition.groups.size();
    const std::string &checkpointBase = options.explore.checkpointPath;
    std::vector<LoweredAnchor> lowered(numGroups);
    std::vector<int> searchGroups;
    std::vector<std::string> checkpointPaths;
    std::unordered_map<OpKey, int> firstOf;
    std::unordered_map<uint64_t, int> searchesOf; // per workloadKey
    rep.groups.resize(numGroups);
    for (size_t g = 0; g < numGroups; ++g) {
        const FusionGroup &group = rep.partition.groups[g];
        SubgraphReport &sub = rep.groups[g];
        sub.members = group.members;
        sub.anchor = group.anchor(dag);
        sub.cost = group.cost;
        sub.name = dag.nodes[sub.anchor >= 0 ? sub.anchor
                                             : group.members.front()]
                       .name;
        if (sub.anchor < 0)
            continue;
        lowered[g] = lowerAnchor(dag, sub.anchor);
        if (pure) {
            auto [first, fresh] = firstOf.emplace(
                lowered[g].output.op()->key(), static_cast<int>(g));
            if (!fresh) {
                sub.reusedFrom = first->second;
                continue;
            }
        }
        searchGroups.push_back(static_cast<int>(g));
        if (!checkpointBase.empty()) {
            const uint64_t key =
                workloadKey(lowered[g].output.op(), rep.device);
            checkpointPaths.push_back(searchCheckpointPath(
                checkpointBase, key, searchesOf[key]++));
        }
    }

    // Each search records into its own trace; the loop below splices it
    // into the group's span, where a sequential run would have written.
    std::vector<AnchorSearch> searches(searchGroups.size());
    auto runSearch = [&](size_t i) {
        const Tensor &anchor = lowered[searchGroups[i]].output;
        TuneOptions searchOptions = options;
        if (!checkpointBase.empty())
            searchOptions.explore.checkpointPath = checkpointPaths[i];
        if (obs.trace)
            searchOptions.explore.obs.trace = &searches[i].trace;
        searches[i].report = tune(anchor, target, searchOptions);
    };
    if (pure) {
        // Pure searches are independent: run them all at once.
        const StageTimer searchTimer(obs, "graph.search.ns");
        WallMark searchMark = searchTimer.start();
        searchPool().parallelFor(searches.size(), runSearch);
        searchTimer.lap(searchMark);
    }

    // Stitch in group order, so sums and trace match a sequential run.
    size_t next = 0; // searches are in group order
    double sim = 0.0;
    for (size_t g = 0; g < numGroups; ++g) {
        SubgraphReport &sub = rep.groups[g];
        if (obs.trace) {
            obs.trace->begin(
                "graph.subgraph", sim,
                {tstr("group", sub.name),
                 tint("members",
                      static_cast<int64_t>(sub.members.size()))});
        }

        if (sub.anchor >= 0) {
            if (sub.reusedFrom >= 0) {
                const TuneReport &first = rep.groups[sub.reusedFrom].report;
                sub.report = cachedReport(first.config, first.gflops,
                                          first.kernelSeconds,
                                          first.spaceSize, first.device);
                sub.report.valid = first.valid;
                if (obs.trace) {
                    obs.trace->point("report", 0.0,
                                     {treal("best", sub.report.gflops),
                                      tint("trials", 0),
                                      tbool("cached", true),
                                      tint("reused_from", sub.reusedFrom)});
                }
                if (anchors_reused)
                    anchors_reused->add();
                certifyReport(sub.report, lowered[g].output, target, options,
                              0.0);
            } else {
                // Runs that carry state search one at a time, in order.
                if (!pure)
                    runSearch(next);
                AnchorSearch &search = searches[next++];
                sub.report = std::move(search.report);
                if (obs.trace)
                    obs.trace->append(search.trace);
            }
            sub.tuned = true;
            // The explorers model the anchor's compute; the roofline
            // owns the group's memory side. Charge the binding one. A
            // search that found nothing is charged the expert schedule,
            // never a free kernel, or the roofline time when even that
            // is rejected.
            sub.fallback = !sub.report.valid;
            double kernel = sub.report.kernelSeconds;
            if (sub.fallback) {
                MiniGraph graph(lowered[g].output);
                kernel = expertKernelSeconds(anchorOp(graph), target)
                             .value_or(sub.cost.seconds);
            }
            sub.seconds = std::max(kernel, sub.cost.memSeconds);
            rep.simExploreSeconds += sub.report.simExploreSeconds;
            sim += sub.report.simExploreSeconds;
        } else {
            sub.seconds = sub.cost.seconds;
        }
        rep.totalSeconds += sub.seconds;

        if (obs.trace) {
            const TraceField tuned = tbool("tuned", sub.tuned);
            const TraceField seconds = treal("seconds", sub.seconds);
            const TraceField traffic =
                tint("traffic_bytes",
                     sub.cost.memInBytes + sub.cost.memOutBytes);
            const TraceField ephemeral =
                tint("ephemeral_bytes", sub.cost.ephemeralBytes);
            // Only a failed search adds a field, so the trace of a run
            // whose searches all succeed reads as it always has.
            if (sub.fallback) {
                obs.trace->end("graph.subgraph", sim,
                               {tuned, seconds, traffic, ephemeral,
                                tbool("fallback", true)});
            } else {
                obs.trace->end("graph.subgraph", sim,
                               {tuned, seconds, traffic, ephemeral});
            }
        }
    }

    inform("graph-tuned ", dag.name, " on ", rep.device, ": ",
           rep.partition.groups.size(), " groups, ",
           rep.ephemeralBytes, " ephemeral bytes");
    return rep;
}

} // namespace

DagTuneReport
tuneDag(const ComputeDag &dag, const Target &target,
        const TuneOptions &options, const PartitionOptions &partitionOptions)
{
    return tuneChosen(dag, target, options, [&] {
        return partitionDag(dag, target, partitionOptions);
    });
}

DagTuneReport
tuneDag(const ComputeDag &dag, const Target &target, Partition partition,
        const TuneOptions &options)
{
    return tuneChosen(dag, target, options,
                      [&] { return std::move(partition); });
}

} // namespace graph
} // namespace ft
