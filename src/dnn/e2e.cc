#include "dnn/e2e.h"

#include "graph/dag.h"
#include "graph/partition.h"
#include "graph/schedule_dag.h"

namespace ft {

const char *
fuseModeName(FuseMode mode)
{
    switch (mode) {
      case FuseMode::None:
        return "none";
      case FuseMode::Epilogue:
        return "epilogue";
      case FuseMode::Graph:
        return "graph";
    }
    return "epilogue";
}

NetworkReport
scheduleNetwork(const Network &net, const Target &target,
                const E2eOptions &options)
{
    NetworkReport report;
    report.network = net.name;
    report.device = target.deviceName();
    report.fuseMode = options.fuse;

    // Algorithm 1 over the partitioned network: every mode is one
    // tuneDag call, and the epilogue partition is the traffic baseline
    // every mode is compared against.
    graph::ComputeDag dag = graph::dagFromNetwork(net);
    graph::Partition baseline = graph::epiloguePartition(dag, target);
    report.baselineTrafficBytes = baseline.totalTrafficBytes;

    TuneOptions tune_options;
    tune_options.method = options.method;
    tune_options.explore = options.explore;
    tune_options.cache = options.cache;
    graph::DagTuneReport tuned;
    switch (options.fuse) {
      case FuseMode::None:
        tuned = graph::tuneDag(dag, target, graph::nonePartition(dag, target),
                               tune_options);
        break;
      case FuseMode::Epilogue:
        tuned = graph::tuneDag(dag, target, std::move(baseline),
                               tune_options);
        break;
      case FuseMode::Graph:
        tuned = graph::tuneDag(dag, target, tune_options);
        break;
    }

    report.totalSeconds = tuned.totalSeconds;
    report.simExploreSeconds = tuned.simExploreSeconds;
    report.modeledTrafficBytes = tuned.trafficBytes;
    report.ephemeralBytes = tuned.ephemeralBytes;
    report.trafficSavedBytes =
        report.baselineTrafficBytes - report.modeledTrafficBytes;
    for (const auto &sub : tuned.groups) {
        LayerReport layer;
        layer.name = sub.name;
        layer.seconds = sub.seconds;
        layer.gflops = sub.tuned ? sub.report.gflops : 0.0;
        layer.tuned = sub.tuned;
        report.layers.push_back(std::move(layer));
        report.reusedAnchors += sub.reusedFrom >= 0;
        report.fallbackGroups += sub.fallback;
    }
    return report;
}

} // namespace ft
