#include "schedule/generator.h"

#include <algorithm>

#include "analysis/verify/verify.h"
#include "schedule/generator_util.h"
#include "support/logging.h"
#include "support/math_util.h"

namespace ft {

void
generateCpuInto(const Operation &anchor, const OpConfig &config,
                const CpuSpec &spec, Scheduled &out)
{
    FT_ASSERT(!anchor->isPlaceholder(), "cannot schedule a placeholder");
    const auto *op = static_cast<const ComputeOp *>(anchor.get());
    gen::checkSplits(op, config, kCpuSpatialLevels, kCpuReduceLevels);

    const IndexAnalysis &ia = op->indexAnalysis();

    out.nest.op = anchor;
    out.features = NestFeatures{};

    // Spatial levels: [outer (parallel candidates), mid, inner];
    // reduce levels: [outer, inner]. Sub-loops are written in place.
    const auto &sp = config.spatialSplits;
    const auto &rd = config.reduceSplits;
    const size_t ns = sp.size(), nr = rd.size();
    int fuse = std::clamp<int>(config.fuseCount, 1, static_cast<int>(ns));
    auto &loops = out.nest.loops;
    loops.resize(ns * kCpuSpatialLevels + nr * kCpuReduceLevels);
    size_t at = 0;
    // The first `fuse` outer loops form the fused parallel hyper-loop.
    for (size_t i = 0; i < ns; ++i)
        gen::setSubLoop(loops[at++], ia, i, sp[i], 0,
                        static_cast<int>(i) < fuse ? LoopAnno::Parallel
                                                   : LoopAnno::Serial);
    for (size_t i = 0; i < ns; ++i)
        gen::setSubLoop(loops[at++], ia, i, sp[i], 1);
    for (size_t i = 0; i < nr; ++i)
        gen::setSubLoop(loops[at++], ia, ns + i, rd[i], 0);

    // Inner block: register/L1 tile. Reorder choice arranges the inner
    // spatial tile (`si`) against the inner reduce steps (`ki`).
    const size_t inner_begin = at;
    auto si = [&](size_t i) { gen::setSubLoop(loops[at++], ia, i, sp[i], 2); };
    auto ki = [&](size_t i) {
        gen::setSubLoop(loops[at++], ia, ns + i, rd[i], 1);
    };
    switch (config.reorderChoice % kNumReorderChoices) {
      case 0:
        for (size_t i = 0; i < nr; ++i)
            ki(i);
        for (size_t i = 0; i < ns; ++i)
            si(i);
        break;
      case 1:
        for (size_t i = 0; i < ns; ++i)
            si(i);
        for (size_t i = 0; i < nr; ++i)
            ki(i);
        break;
      case 2:
        for (size_t a = 0, b = 0; a < nr || b < ns;) {
            if (a < nr)
                ki(a++);
            if (b < ns)
                si(b++);
        }
        break;
      default:
        // Keep the innermost spatial loop last but hoist the reduce chain
        // directly around it (good for FMA accumulation).
        for (size_t i = 0; i + 1 < ns; ++i)
            si(i);
        for (size_t i = 0; i < nr; ++i)
            ki(i);
        if (ns > 0)
            si(ns - 1);
        break;
    }
    // The innermost spatial sub-loop is the vectorized one.
    for (size_t i = loops.size(); i-- > inner_begin;) {
        if (loops[i].origin->kind == IterKind::Spatial) {
            loops[i].anno = LoopAnno::Vectorize;
            break;
        }
    }
    const int inner_size = static_cast<int>(loops.size() - inner_begin);
    for (int u = 0; u < config.unrollDepth && u < inner_size; ++u) {
        auto &l = loops[loops.size() - 1 - u];
        if (l.anno == LoopAnno::Serial)
            l.anno = LoopAnno::Unroll;
    }
    gen::recordGuardedAxes(op, config, out.nest);

    // ------------------------------------------------------------------
    // Features.
    NestFeatures &f = out.features;
    f.totalFlops = ia.flops();
    f.outputElems = product(op->outputShape());
    f.parallelExtent = out.nest.extentOf(LoopAnno::Parallel);

    // Effective vector width: lanes actually filled by the innermost
    // spatial sub-loop, capped by the requested length.
    int64_t inner_sp = 1;
    for (size_t i = inner_begin; i < loops.size(); ++i) {
        if (loops[i].anno == LoopAnno::Vectorize)
            inner_sp = loops[i].extent;
    }
    f.vecLen = static_cast<int>(
        std::min<int64_t>(config.vectorizeLen,
                          largestPowerOfTwoDivisor(inner_sp)));
    f.vecLen = std::max(f.vecLen, 1);

    f.unrollSteps = 1;
    for (size_t i = inner_begin; i < loops.size(); ++i) {
        if (loops[i].anno == LoopAnno::Unroll)
            f.unrollSteps *= loops[i].extent;
    }

    // L1 tile: the inner block (si x ki) footprint.
    IndexScratch &scratch = indexScratch();
    scratch.ranges.resize(ia.numSlots());
    scratch.cells.resize(ia.numAccesses());
    Interval *ranges = scratch.ranges.data();
    int64_t *cells = scratch.cells.data();
    gen::rangesWithFree(
        config,
        [](bool reduce, int level) {
            return level >= 2 || (reduce && level >= 1);
        },
        ranges);
    f.l1TileBytes = gen::footprintBytes(ia, ranges, cells);

    // L2 tile: everything below the parallel level.
    gen::rangesWithFree(
        config, [](bool reduce, int level) { return reduce || level != 0; },
        ranges);
    f.l2TileBytes = gen::footprintBytes(ia, ranges, cells);

    // DRAM traffic: per-parallel-task footprint times task count, floored
    // by tensor size and discounted by L3 reuse for small tensors.
    int64_t tasks = 1;
    for (const auto &row : sp)
        tasks *= row[0];
    int64_t dram = 0;
    for (size_t i = 0; i < ia.numAccesses(); ++i) {
        int64_t tensor_bytes = ia.accessTensorBytes(i);
        int64_t naive = tasks * cells[i] * 4;
        if (tensor_bytes < spec.l3Bytes / 2)
            dram += std::max<int64_t>(tensor_bytes, naive / 16);
        else
            dram += naive;
    }
    dram += f.outputElems * 4;
    f.cpuDramBytes = dram;

    // No CPU device limit gates validity; the shim keeps valid == true.
    verify::applyResourceValidity(out, Target::forCpu(spec));
}

} // namespace ft
