#include "dnn/e2e.h"

#include "analysis/flops.h"
#include "graph/dag.h"
#include "graph/partition.h"
#include "graph/schedule_dag.h"
#include "support/logging.h"

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

namespace {

double
deviceBandwidthGBs(const Target &target)
{
    switch (target.kind) {
      case DeviceKind::Gpu:
        return target.gpu->memBwGBs;
      case DeviceKind::Cpu:
        return target.cpu->memBwGBs;
      case DeviceKind::Fpga:
        return target.fpga->ddrBwGBs;
    }
    return 1.0;
}

} // namespace

NetworkReport
scheduleNetwork(const Network &net, const Target &target,
                const E2eOptions &options)
{
    NetworkReport report;
    report.network = net.name;
    report.device = target.deviceName();
    report.fuseMode = options.fuse;

    // Traffic accounting is shared across modes: the epilogue-only
    // partition is the baseline every mode is compared against.
    graph::ComputeDag dag = graph::dagFromNetwork(net);
    report.baselineTrafficBytes =
        graph::epiloguePartition(dag, target).totalTrafficBytes;

    if (options.fuse == FuseMode::Graph) {
        TuneOptions tune_options;
        tune_options.method = options.method;
        tune_options.explore = options.explore;
        tune_options.cache = options.cache;
        graph::DagTuneReport tuned =
            graph::tuneDag(dag, target, tune_options);
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
        }
        return report;
    }

    {
        graph::Partition chosen =
            options.fuse == FuseMode::None
                ? graph::nonePartition(dag, target)
                : graph::epiloguePartition(dag, target);
        report.modeledTrafficBytes = chosen.totalTrafficBytes;
        report.ephemeralBytes = chosen.ephemeralBytes;
        report.trafficSavedBytes =
            report.baselineTrafficBytes - report.modeledTrafficBytes;
    }

    const bool fuse_elt =
        options.fuseElementwise && options.fuse != FuseMode::None;
    const double bw = deviceBandwidthGBs(target) * 1e9;
    auto fused_ops = partitionAndFuse(net);

    // Algorithm 1: traverse the (sequential) graph bottom-up and schedule
    // each node, then assemble the whole-graph cost.
    for (const auto &fused : fused_ops) {
        LayerReport layer;
        layer.name = fused.name;

        if (!fused.schedulable) {
            // Bandwidth-bound data movement (pooling): bytes in + out.
            int64_t in_bytes = 0;
            MiniGraph g(fused.output);
            for (const auto &op : g.postOrder()) {
                if (op->isPlaceholder()) {
                    int64_t n = 4;
                    for (int64_t d : op->outputShape())
                        n *= d;
                    in_bytes += n;
                }
            }
            layer.seconds = static_cast<double>(in_bytes +
                                                fused.outputBytes) /
                            bw;
        } else {
            TuneOptions tune_options;
            tune_options.method = options.method;
            tune_options.explore = options.explore;
            tune_options.cache = options.cache;
            TuneReport tuned = tune(fused.output, target, tune_options);
            layer.seconds = tuned.kernelSeconds;
            layer.gflops = tuned.gflops;
            layer.tuned = true;
            report.simExploreSeconds += tuned.simExploreSeconds;

            if (!fuse_elt) {
                // Unfused ablation: each epilogue op re-reads and
                // re-writes the activation.
                layer.seconds += fused.fusedElementwise * 2.0 *
                                 static_cast<double>(fused.outputBytes) /
                                 bw;
            }
        }
        report.totalSeconds += layer.seconds;
        report.layers.push_back(std::move(layer));
    }
    return report;
}

} // namespace ft
