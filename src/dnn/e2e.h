/**
 * @file
 * End-to-end network scheduling (Section 6.6 and Algorithm 1).
 *
 * Every fused operator is tuned bottom-up with the chosen exploration
 * method; unschedulable data-movement layers (pooling) are charged their
 * bandwidth cost; fused elementwise epilogues are free, while the unfused
 * ablation pays one memory round trip per epilogue op.
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
    bool tuned = false; ///< false for bandwidth-bound layers
};

/** How aggressively the network is partitioned before tuning. */
enum class FuseMode
{
    None,     ///< every op is its own group (epilogues pay round trips)
    Epilogue, ///< legacy: elementwise epilogues sink into their producer
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
    /** Graph mode: groups that reused an earlier group's anchor report. */
    int reusedAnchors = 0;
    std::vector<LayerReport> layers;
};

/** Options for end-to-end scheduling. */
struct E2eOptions
{
    Method method = Method::QMethod;
    ExploreOptions explore;
    FuseMode fuse = FuseMode::Epilogue;
    bool fuseElementwise = true; ///< ablation: pay epilogue round trips
    /**
     * Optional tuning cache shared across layers. Networks repeat layer
     * shapes (YOLO-v1's block 4 contains four identical conv pairs), so
     * repeated layers are served without re-exploration.
     */
    TuningCache *cache = nullptr;
};

/** Tune every layer of a network and accumulate predicted runtime. */
NetworkReport scheduleNetwork(const Network &net, const Target &target,
                              const E2eOptions &options = {});

} // namespace ft

#endif // FLEXTENSOR_DNN_E2E_H
