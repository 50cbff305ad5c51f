/**
 * @file
 * End-to-end network scheduling (Section 6.6 and Algorithm 1).
 *
 * The network becomes a ComputeDag (graph::dagFromNetwork), FuseMode
 * picks its partition, and graph::tuneDag tunes every group's anchor
 * with the chosen exploration method. Each group is charged
 * max(tuned kernel, roofline memory); anchor-free groups (pooling, and
 * the unfused bias/ReLU of FuseMode::None, which pay their own DRAM
 * round trip) are charged their roofline seconds.
 */
#ifndef FLEXTENSOR_DNN_E2E_H
#define FLEXTENSOR_DNN_E2E_H

#include "dnn/models.h"
#include "explore/tuner.h"

namespace ft {

/** Per-layer outcome of end-to-end scheduling. */
struct LayerReport
{
    std::string name;
    double seconds = 0.0;
    double gflops = 0.0;
    bool tuned = false; ///< false for bandwidth-bound groups
};

/** How aggressively the network is partitioned before tuning. */
enum class FuseMode
{
    None,     ///< every op is its own group (epilogues pay round trips)
    Epilogue, ///< elementwise epilogues sink into their producer
    Graph,    ///< graph-level: roofline-guided beam partition (src/graph)
};

/** Stable lowercase name of a fuse mode (CLI/JSON spelling). */
const char *fuseModeName(FuseMode mode);

/** Whole-network outcome. */
struct NetworkReport
{
    std::string network;
    std::string device;
    FuseMode fuseMode = FuseMode::Epilogue;
    double totalSeconds = 0.0;
    double simExploreSeconds = 0.0;
    /** Modeled tier-3 traffic of the chosen partition. */
    int64_t modeledTrafficBytes = 0;
    /** Traffic of the epilogue-only partition (the comparison baseline). */
    int64_t baselineTrafficBytes = 0;
    /** baseline - modeled; positive when graph fusion saves DRAM trips. */
    int64_t trafficSavedBytes = 0;
    /** Intermediate bytes kept on chip by the chosen partition. */
    int64_t ephemeralBytes = 0;
    /** Groups that reused an earlier group's anchor report. */
    int reusedAnchors = 0;
    /**
     * Groups whose search found no valid schedule and were charged
     * their anchor's expert schedule (graph::SubgraphReport::fallback).
     */
    int fallbackGroups = 0;
    /** One entry per fusion group, in DAG order. */
    std::vector<LayerReport> layers;
};

/** Options for end-to-end scheduling. */
struct E2eOptions
{
    Method method = Method::QMethod;
    ExploreOptions explore;
    FuseMode fuse = FuseMode::Epilogue;
    /**
     * Optional tuning cache (keyed by anchor OpKey and device): later
     * calls explore only anchors it has not seen. Repeats within one
     * call are tuned once anyway (tuneDag's memo).
     */
    TuningCache *cache = nullptr;
};

/** Tune every fusion group of a network and accumulate its runtime. */
NetworkReport scheduleNetwork(const Network &net, const Target &target,
                              const E2eOptions &options = {});

} // namespace ft

#endif // FLEXTENSOR_DNN_E2E_H
