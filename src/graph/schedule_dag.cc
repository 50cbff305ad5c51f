#include "graph/schedule_dag.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "graph/lower.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace ft {
namespace graph {

namespace {

/**
 * True when tune() is a pure function of (anchor OpKey, target,
 * options): no learned cost model, checkpoint file or tuning cache
 * carries state from one run into the next.
 */
bool
searchIsPure(const TuneOptions &options)
{
    return options.explore.costModel == nullptr &&
           options.explore.checkpointPath.empty() &&
           options.cache == nullptr;
}

/** What a tuning-cache hit in tuneOp reports, taken from `first`. */
TuneReport
reusedReport(const TuneReport &first)
{
    TuneReport report;
    report.config = first.config;
    report.gflops = first.gflops;
    report.kernelSeconds = first.kernelSeconds;
    report.spaceSize = first.spaceSize;
    report.device = first.device;
    report.fromCache = true;
    return report;
}

} // namespace

DagTuneReport
tuneDag(const ComputeDag &dag, const Target &target,
        const TuneOptions &options, const PartitionOptions &partitionOptions)
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
    Counter *partition_ns = obs.wallProfile
                                ? maybeCounter(obs.metrics,
                                               "graph.partition.ns")
                                : nullptr;
    const auto t0 = std::chrono::steady_clock::now();
    rep.partition = partitionDag(dag, target, partitionOptions);
    if (partition_ns)
        partition_ns->add(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
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

    // OpKey of each searched anchor -> index of its group.
    std::unordered_map<OpKey, int> searched;
    const bool memoize = searchIsPure(options);
    double sim = 0.0;
    for (const FusionGroup &group : rep.partition.groups) {
        SubgraphReport sub;
        sub.members = group.members;
        sub.anchor = group.anchor(dag);
        sub.cost = group.cost;
        sub.name = dag.nodes[sub.anchor >= 0 ? sub.anchor
                                             : group.members.front()]
                       .name;
        if (obs.trace) {
            obs.trace->begin(
                "graph.subgraph", sim,
                {tstr("group", sub.name),
                 tint("members",
                      static_cast<int64_t>(group.members.size()))});
        }

        if (sub.anchor >= 0) {
            LoweredAnchor lowered = lowerAnchor(dag, sub.anchor);
            const OpKey key = lowered.output.op()->key();
            auto first = memoize ? searched.find(key) : searched.end();
            if (first != searched.end()) {
                sub.reusedFrom = first->second;
                sub.report = reusedReport(rep.groups[first->second].report);
                if (obs.trace) {
                    obs.trace->point("report", 0.0,
                                     {treal("best", sub.report.gflops),
                                      tint("trials", 0),
                                      tbool("cached", true),
                                      tint("reused_from", sub.reusedFrom)});
                }
                if (anchors_reused)
                    anchors_reused->add();
                certifyReport(sub.report, lowered.output, target, options,
                              0.0);
            } else {
                sub.report = tune(lowered.output, target, options);
                if (memoize)
                    searched.emplace(key, static_cast<int>(rep.groups.size()));
            }
            sub.tuned = true;
            // The explorers model the anchor's compute; the roofline
            // owns the group's memory side. Charge the binding one.
            sub.seconds = std::max(sub.report.kernelSeconds,
                                   sub.cost.memSeconds);
            rep.simExploreSeconds += sub.report.simExploreSeconds;
            sim += sub.report.simExploreSeconds;
        } else {
            sub.seconds = sub.cost.seconds;
        }
        rep.totalSeconds += sub.seconds;

        if (obs.trace) {
            obs.trace->end(
                "graph.subgraph", sim,
                {tbool("tuned", sub.tuned),
                 treal("seconds", sub.seconds),
                 tint("traffic_bytes",
                      sub.cost.memInBytes + sub.cost.memOutBytes),
                 tint("ephemeral_bytes", sub.cost.ephemeralBytes)});
        }
        rep.groups.push_back(std::move(sub));
    }

    inform("graph-tuned ", dag.name, " on ", rep.device, ": ",
           rep.partition.groups.size(), " groups, ",
           rep.ephemeralBytes, " ephemeral bytes");
    return rep;
}

} // namespace graph
} // namespace ft
