/**
 * @file
 * Whole-network scheduling (Section 6.6): partition OverFeat into fused
 * operators, tune every one bottom-up (Algorithm 1), and report per-layer
 * and end-to-end predicted latency — including the fusion ablation (what
 * the epilogue round trips would cost without operator fusion).
 */
#include <cstdio>

#include "core/flextensor.h"
#include "dnn/e2e.h"

using namespace ft;

int
main()
{
    Network net = overFeat(1);
    Target target = Target::forGpu(v100());

    std::printf("%s: %d conv layers, %zu layers total\n", net.name.c_str(),
                net.numConvLayers(), net.layers.size());

    E2eOptions options;
    options.explore.trials = 100;
    NetworkReport fused = scheduleNetwork(net, target, options);

    E2eOptions unfused_options = options;
    unfused_options.fuse = FuseMode::None;
    NetworkReport unfused = scheduleNetwork(net, target, unfused_options);

    std::printf("\n%-10s %12s %12s %10s\n", "layer", "latency(ms)",
                "GFLOPS", "tuned");
    for (const auto &layer : fused.layers) {
        std::printf("%-10s %12.3f %12.0f %10s\n", layer.name.c_str(),
                    layer.seconds * 1e3, layer.gflops,
                    layer.tuned ? "yes" : "mem-bound");
    }
    std::printf("\nend-to-end: %.3f ms (fused epilogues)\n",
                fused.totalSeconds * 1e3);
    std::printf("            %.3f ms (unfused ablation, +%.1f%%)\n",
                unfused.totalSeconds * 1e3,
                100.0 * (unfused.totalSeconds / fused.totalSeconds - 1.0));
    std::printf("exploration cost: %.0f simulated seconds\n",
                fused.simExploreSeconds);
    return 0;
}
