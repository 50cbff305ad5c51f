/**
 * @file
 * Section 6.6: end-to-end DNNs on V100. Each network is partitioned into
 * sub-graphs and every schedulable group is tuned bottom-up
 * (Algorithm 1) by FlexTensor's Q-method and by the AutoTVM baseline.
 *
 * Usage: sec66_dnn_e2e [--batch N]... [--fuse none|epilogue|graph]
 *                      [--trials N] [--out BENCH_graph.json]
 *
 * Batch defaults to 1 (the paper's setting); repeated --batch flags
 * sweep the networks across batch sizes (the shape-family scenario).
 * --fuse selects the partitioning mode for both methods: `epilogue`
 * (default) is the paper's elementwise fusion, `none` the unfused
 * ablation, and `graph` the roofline-guided graph-level partitioner
 * (src/graph/). Traffic accounting — modeled DRAM bytes vs. the
 * epilogue baseline — goes to stdout and to the JSON file for CI
 * tracking. Under `--fuse graph` the FlexTensor run also records the
 * partitioner's wall time (`partition_ms`, from the graph.partition.ns
 * wall-profile counter) and the groups that reused an earlier group's
 * anchor report (`reused_anchors`) per network.
 *
 * Paper reference (batch 1): FlexTensor is 1.07x faster end-to-end on
 * YOLO-v1 and 1.39x on OverFeat compared to AutoTVM.
 */
#include "bench_util.h"

#include <cstdlib>
#include <cstring>
#include <fstream>

#include "dnn/e2e.h"
#include "obs/metrics.h"

using namespace ft;

namespace {

/** One network's outcome, kept for the JSON summary. */
struct NetOutcome
{
    std::string network;
    int64_t batch = 1;
    NetworkReport flex;
    NetworkReport tvm;
    double partitionMs = 0.0; ///< FlexTensor run's partitionDag wall time
};

/**
 * The per-layer table pairs the two reports by index, which is only
 * meaningful when both runs partitioned the network identically. Check
 * size and per-layer names up front instead of silently printing rows
 * from two different layer lists.
 */
bool
layerListsAgree(const NetworkReport &a, const NetworkReport &b)
{
    if (a.layers.size() != b.layers.size())
        return false;
    for (size_t i = 0; i < a.layers.size(); ++i)
        if (a.layers[i].name != b.layers[i].name)
            return false;
    return true;
}

NetOutcome
runNetwork(const Network &net, const Target &target, int64_t batch,
           FuseMode fuse, int trials, double paper_speedup)
{
    ftbench::header("Section 6.6: " + net.name + " end-to-end on " +
                    target.deviceName() + " (batch " +
                    std::to_string(batch) + ", fuse=" +
                    fuseModeName(fuse) + ")");

    E2eOptions flex_options;
    flex_options.method = Method::QMethod;
    flex_options.explore.trials = trials;
    flex_options.fuse = fuse;
    MetricsRegistry metrics;
    flex_options.explore.obs.metrics = &metrics;
    flex_options.explore.obs.wallProfile = fuse == FuseMode::Graph;
    NetworkReport flex = scheduleNetwork(net, target, flex_options);
    const double partition_ms =
        static_cast<double>(
            metrics.snapshot().counter("graph.partition.ns")) *
        1e-6;

    E2eOptions tvm_options;
    tvm_options.method = Method::AutoTvm;
    tvm_options.explore.trials = trials;
    tvm_options.fuse = fuse;
    NetworkReport tvm = scheduleNetwork(net, target, tvm_options);

    if (!layerListsAgree(flex, tvm)) {
        std::fprintf(stderr,
                     "layer lists diverged between methods (%zu vs %zu "
                     "groups); refusing to print an index-paired table\n",
                     flex.layers.size(), tvm.layers.size());
        std::exit(1);
    }

    ftbench::row({"layer", "AutoTVM(ms)", "FlexTensor(ms)"}, 16);
    for (size_t i = 0; i < flex.layers.size(); ++i) {
        ftbench::row({flex.layers[i].name,
                      ftbench::num(tvm.layers[i].seconds * 1e3, 3),
                      ftbench::num(flex.layers[i].seconds * 1e3, 3)},
                     16);
    }
    std::printf("total: AutoTVM %.3f ms, FlexTensor %.3f ms -> "
                "speedup %.2fx",
                tvm.totalSeconds * 1e3, flex.totalSeconds * 1e3,
                tvm.totalSeconds / flex.totalSeconds);
    if (batch == 1 && fuse == FuseMode::Epilogue)
        std::printf(" (paper: %.2fx)", paper_speedup);
    std::printf("\n");
    if (flex.fallbackGroups > 0)
        std::printf("fallback: %d groups found no valid schedule and are "
                    "charged their expert schedule\n",
                    flex.fallbackGroups);
    std::printf("traffic: %lld modeled bytes vs %lld epilogue baseline "
                "-> %lld saved (%lld ephemeral bytes on chip)\n",
                (long long)flex.modeledTrafficBytes,
                (long long)flex.baselineTrafficBytes,
                (long long)flex.trafficSavedBytes,
                (long long)flex.ephemeralBytes);
    if (fuse == FuseMode::Graph)
        std::printf("partition: %.3f ms wall, %d reused anchors\n",
                    partition_ms, flex.reusedAnchors);

    NetOutcome out;
    out.network = net.name;
    out.batch = batch;
    out.flex = std::move(flex);
    out.tvm = std::move(tvm);
    out.partitionMs = partition_ms;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<int64_t> batches;
    FuseMode fuse = FuseMode::Epilogue;
    int trials = 90;
    std::string out_path = "BENCH_graph.json";
    for (int i = 1; i < argc; ++i) {
        auto arg = [&](const char *flag) {
            return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
        };
        if (arg("--batch")) {
            batches.push_back(std::atoll(argv[++i]));
        } else if (arg("--fuse")) {
            std::string name = argv[++i];
            if (name == "none") {
                fuse = FuseMode::None;
            } else if (name == "epilogue") {
                fuse = FuseMode::Epilogue;
            } else if (name == "graph") {
                fuse = FuseMode::Graph;
            } else {
                std::fprintf(stderr, "unknown --fuse '%s'\n", name.c_str());
                return 1;
            }
        } else if (arg("--trials")) {
            trials = std::atoi(argv[++i]);
        } else if (arg("--out")) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--batch N]... "
                         "[--fuse none|epilogue|graph] [--trials N] "
                         "[--out FILE]\n",
                         argv[0]);
            return 1;
        }
    }
    if (batches.empty())
        batches.push_back(1); // the paper's batch-1 protocol

    Target target = Target::forGpu(v100());
    std::vector<NetOutcome> outcomes;
    for (int64_t batch : batches) {
        outcomes.push_back(
            runNetwork(overFeat(batch), target, batch, fuse, trials, 1.39));
        outcomes.push_back(
            runNetwork(yoloV1(batch), target, batch, fuse, trials, 1.07));
    }

    std::ofstream json(out_path);
    json << "{\n  \"fuse\": \"" << fuseModeName(fuse) << "\",\n"
         << "  \"trials\": " << trials << ",\n"
         << "  \"device\": \"" << target.deviceName() << "\",\n"
         << "  \"networks\": [\n";
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const NetOutcome &o = outcomes[i];
        json << "    {\"network\": \"" << o.network << "\", \"batch\": "
             << o.batch << ",\n"
             << "     \"flex_seconds\": " << o.flex.totalSeconds
             << ", \"tvm_seconds\": " << o.tvm.totalSeconds << ",\n"
             << "     \"groups\": " << o.flex.layers.size() << ",\n"
             << "     \"modeled_traffic_bytes\": "
             << o.flex.modeledTrafficBytes << ",\n"
             << "     \"baseline_traffic_bytes\": "
             << o.flex.baselineTrafficBytes << ",\n"
             << "     \"traffic_saved_bytes\": "
             << o.flex.trafficSavedBytes << ",\n"
             << "     \"ephemeral_bytes\": " << o.flex.ephemeralBytes;
        if (fuse == FuseMode::Graph)
            json << ",\n     \"partition_ms\": " << o.partitionMs
                 << ",\n     \"reused_anchors\": " << o.flex.reusedAnchors;
        json << "}" << (i + 1 < outcomes.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("\nbench json -> %s\n", out_path.c_str());
    return 0;
}
