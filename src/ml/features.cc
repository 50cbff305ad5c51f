#include "ml/features.h"

#include <algorithm>
#include <cmath>

#include "graph/roofline.h"

namespace ft {

namespace {

/** log2(1+x): compresses multiplicative knobs onto an additive scale. */
double
lg(double x)
{
    return std::log2(1.0 + std::max(0.0, x));
}

} // namespace

void
costFeaturesInto(const Scheduled &sched, const Target &target,
                 std::vector<double> &out)
{
    const NestFeatures &nf = sched.features;
    const LoopNest &nest = sched.nest;
    const graph::TierSpec tiers = graph::tierSpecFor(target);

    out.assign(kCostFeatureDim, 0.0);
    int k = 0;

    // Problem scale, normalized so different shapes share one axis.
    const double elems = static_cast<double>(nf.outputElems);
    out[k++] = nf.valid ? 1.0 : 0.0;
    out[k++] = lg(nf.totalFlops);
    out[k++] = lg(elems);
    out[k++] = lg(elems > 0 ? nf.totalFlops / elems : 0.0);

    // Annotation extents of the lowered nest (the tiling decisions).
    out[k++] = lg(static_cast<double>(nest.extentOf(LoopAnno::Parallel)));
    out[k++] = lg(static_cast<double>(nest.extentOf(LoopAnno::Vectorize)));
    out[k++] = lg(static_cast<double>(nest.extentOf(LoopAnno::Unroll)));
    out[k++] = lg(static_cast<double>(nest.extentOf(LoopAnno::BlockX)));
    out[k++] = lg(static_cast<double>(nest.extentOf(LoopAnno::VThread)));
    out[k++] = lg(static_cast<double>(nest.extentOf(LoopAnno::ThreadX)));
    out[k++] = lg(static_cast<double>(nest.extentOf(LoopAnno::PE)));
    out[k++] = lg(static_cast<double>(nf.unrollSteps));
    out[k++] = lg(static_cast<double>(nest.guardedAxes.size()));

    // Reuse-distance proxies: the serial work under the innermost
    // annotated loop approximates the register-level reuse window; the
    // normalized depth of the first annotated loop captures how early
    // the nest commits its parallelism.
    double inner_serial = 1.0;
    double serial_total = 1.0;
    int first_anno = -1;
    const int depth = static_cast<int>(nest.loops.size());
    for (int i = 0; i < depth; ++i) {
        const SubLoop &l = nest.loops[i];
        if (l.anno == LoopAnno::Serial) {
            serial_total *= static_cast<double>(l.extent);
            continue;
        }
        if (first_anno < 0)
            first_anno = i;
        inner_serial = 1.0;
    }
    for (int i = depth - 1; i >= 0; --i) {
        if (nest.loops[i].anno != LoopAnno::Serial)
            break;
        inner_serial *= static_cast<double>(nest.loops[i].extent);
    }
    out[k++] = lg(inner_serial);
    out[k++] = lg(serial_total);
    out[k++] = depth > 0 && first_anno >= 0
                   ? static_cast<double>(first_anno) / depth
                   : 0.0;

    // GPU resource features.
    out[k++] = lg(static_cast<double>(nf.grid));
    out[k++] = lg(static_cast<double>(nf.threadsPerBlock));
    out[k++] = lg(static_cast<double>(nf.vthreads));
    out[k++] = lg(static_cast<double>(nf.workPerThread));
    out[k++] = lg(static_cast<double>(nf.regsPerThread));
    out[k++] = nf.coalesceFactor;
    out[k++] = nf.bankConflictPenalty;

    // CPU resource features.
    out[k++] = lg(static_cast<double>(nf.parallelExtent));
    out[k++] = lg(static_cast<double>(nf.vecLen));

    // FPGA resource features.
    out[k++] = lg(static_cast<double>(nf.pe));
    out[k++] = lg(static_cast<double>(nf.partition));

    // Roofline terms against the target's tier model: arithmetic
    // intensity, the compute-vs-memory balance, occupancy of the
    // device's parallel capacity, and the on-chip footprint relative
    // to each tier's bytes.
    const double bytes =
        static_cast<double>(nf.dramBytes + nf.cpuDramBytes) +
        (nf.readBytesPerRound + nf.writeBytesPerRound) *
            static_cast<double>(nf.rounds);
    out[k++] = lg(bytes > 0 ? nf.totalFlops / bytes : 0.0);
    const double compute_s = nf.totalFlops / 1e9 / tiers.peakGflops;
    const double mem_s = bytes / 1e9 / tiers.dramBwGBs;
    out[k++] = std::log2((1e-12 + compute_s) / (1e-12 + mem_s));

    double lanes = 1.0, capacity = 1.0, tier1_fill = 0.0;
    switch (target.kind) {
    case DeviceKind::Gpu:
        lanes = static_cast<double>(nf.grid * nf.threadsPerBlock);
        capacity = static_cast<double>(target.gpu->sms) *
                   target.gpu->maxThreadsPerSm;
        tier1_fill = static_cast<double>(nf.sharedBytesPerBlock);
        break;
    case DeviceKind::Cpu:
        lanes = static_cast<double>(nf.parallelExtent);
        capacity = static_cast<double>(target.cpu->cores);
        tier1_fill = static_cast<double>(nf.l1TileBytes);
        break;
    case DeviceKind::Fpga:
        lanes = static_cast<double>(nf.pe);
        capacity = static_cast<double>(target.fpga->maxPe());
        tier1_fill = static_cast<double>(nf.bufferBytes);
        break;
    }
    out[k++] = std::min(4.0, lanes / std::max(1.0, capacity));
    out[k++] = tiers.tier1Bytes > 0
                   ? std::min(4.0, tier1_fill /
                                       static_cast<double>(tiers.tier1Bytes))
                   : 0.0;
    const double tier2_fill = static_cast<double>(
        target.kind == DeviceKind::Cpu ? nf.l2TileBytes
                                       : nf.sharedBytesPerBlock + nf.bufferBytes);
    out[k++] = tiers.tier2Bytes > 0
                   ? std::min(4.0, tier2_fill /
                                       static_cast<double>(tiers.tier2Bytes))
                   : 0.0;
}

} // namespace ft
