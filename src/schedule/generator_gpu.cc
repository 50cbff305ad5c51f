#include "schedule/generator.h"

#include <algorithm>
#include <cmath>

#include "analysis/verify/verify.h"
#include "schedule/generator_util.h"
#include "support/logging.h"
#include "support/math_util.h"

namespace ft {

namespace {

/**
 * Visit the innermost loop block in the order the reorder choice
 * arranges it: `emit(reduce, i)` for the inner spatial sub-loop of axis
 * i (reduce false) or the innermost reduce sub-loop of reduce axis i.
 */
template <class Emit>
void
forEachInner(int choice, size_t ns, size_t nr, Emit emit)
{
    switch (choice % kNumReorderChoices) {
      case 0: // reduce taps outside, spatial register tile innermost
        for (size_t i = 0; i < nr; ++i)
            emit(true, i);
        for (size_t i = 0; i < ns; ++i)
            emit(false, i);
        break;
      case 1: // spatial outside, reduce innermost (accumulator chains)
        for (size_t i = 0; i < ns; ++i)
            emit(false, i);
        for (size_t i = 0; i < nr; ++i)
            emit(true, i);
        break;
      case 2: // interleave, starting with reduce
        for (size_t a = 0, b = 0; a < nr || b < ns;) {
            if (a < nr)
                emit(true, a++);
            if (b < ns)
                emit(false, b++);
        }
        break;
      default: // interleave, starting with spatial
        for (size_t a = 0, b = 0; a < nr || b < ns;) {
            if (b < ns)
                emit(false, b++);
            if (a < nr)
                emit(true, a++);
        }
        break;
    }
}

} // namespace

void
generateGpuInto(const Operation &anchor, const OpConfig &config,
                const GpuSpec &spec, Scheduled &out)
{
    FT_ASSERT(!anchor->isPlaceholder(), "cannot schedule a placeholder");
    const auto *op = static_cast<const ComputeOp *>(anchor.get());
    gen::checkSplits(op, config, kGpuSpatialLevels, kGpuReduceLevels);
    const IndexAnalysis &ia = op->indexAnalysis();

    out.nest.op = anchor;
    out.features = NestFeatures{};

    // Split every loop, writing the sub-loops in place. Spatial levels:
    // [block, vthread, thread, inner]; reduce levels: [outer, mid,
    // inner].
    const auto &sp = config.spatialSplits;
    const auto &rd = config.reduceSplits;
    const size_t ns = sp.size(), nr = rd.size();
    auto &loops = out.nest.loops;
    loops.resize(ns * kGpuSpatialLevels + nr * kGpuReduceLevels);
    size_t at = 0;
    const LoopAnno spatialAnno[] = {LoopAnno::BlockX, LoopAnno::VThread,
                                    LoopAnno::ThreadX};
    for (int level = 0; level < 3; ++level) {
        for (size_t i = 0; i < ns; ++i)
            gen::setSubLoop(loops[at++], ia, i, sp[i], level,
                            spatialAnno[level]);
    }
    for (int level = 0; level < 2; ++level) {
        for (size_t i = 0; i < nr; ++i)
            gen::setSubLoop(loops[at++], ia, ns + i, rd[i], level);
    }
    const size_t inner_begin = at;
    forEachInner(config.reorderChoice, ns, nr, [&](bool reduce, size_t i) {
        if (reduce)
            gen::setSubLoop(loops[at++], ia, ns + i, rd[i], 2);
        else
            gen::setSubLoop(loops[at++], ia, i, sp[i], 3);
    });
    const int inner_size = static_cast<int>(loops.size() - inner_begin);
    for (int u = 0; u < config.unrollDepth && u < inner_size; ++u)
        loops[loops.size() - 1 - u].anno = LoopAnno::Unroll;
    gen::recordGuardedAxes(op, config, out.nest);

    // ------------------------------------------------------------------
    // Features.
    NestFeatures &f = out.features;
    f.totalFlops = ia.flops();
    f.outputElems = product(op->outputShape());

    // The BlockX, VThread and ThreadX loops are levels 0, 1 and 2 of
    // every spatial split.
    f.grid = 1;
    f.vthreads = 1;
    f.threadsPerBlock = 1;
    for (const auto &row : sp) {
        f.grid *= row[0];
        f.vthreads *= row[1];
        f.threadsPerBlock *= row[2];
    }

    int64_t regTile = 1;
    for (const auto &row : sp)
        regTile *= row[3];
    int64_t reduceWork = 1;
    for (const auto &row : rd)
        for (int64_t factor : row)
            reduceWork *= factor;
    f.workPerThread = f.vthreads * regTile * reduceWork;
    f.regsPerThread = 16 + 2 * regTile + 4 * config.unrollDepth;
    f.unrollSteps = 1;
    for (int u = 0; u < config.unrollDepth && u < inner_size; ++u)
        f.unrollSteps *= loops[loops.size() - 1 - u].extent;

    // Shared-memory tiles: inputs are staged per block at the configured
    // reduce depth (compute_at). Reduce levels at or above the staging
    // depth are pinned (the tile is reloaded for each of their
    // iterations); deeper levels and all sub-block spatial loops are free.
    const int cache_at =
        std::clamp(config.cacheAtReduceLevel, 0, kGpuReduceLevels - 2);
    IndexScratch &scratch = indexScratch();
    scratch.ranges.resize(ia.numSlots());
    scratch.cells.resize(ia.numAccesses());
    Interval *ranges = scratch.ranges.data();
    int64_t *cells = scratch.cells.data();
    gen::rangesWithFree(
        config,
        [cache_at](bool reduce, int level) {
            return reduce ? level > cache_at : level != 0;
        },
        ranges);
    // The bank-conflict check below reads the staged tile's first
    // access: its last index under these ranges.
    Interval tile_last{0, 0};
    f.sharedBytesPerBlock =
        gen::footprintBytes(ia, ranges, cells, &tile_last);

    // DRAM traffic: per-block footprint over the whole reduction, times
    // the grid; small tensors are assumed to be served mostly from L2.
    // Staging deeper than the default point (compute_at level > 0) pays a
    // reload penalty proportional to the extra staging rounds.
    gen::rangesWithFree(
        config, [](bool reduce, int level) { return reduce || level != 0; },
        ranges);
    ia.footprints(ranges, cells);
    double reload = 1.0;
    if (cache_at > 0) {
        int64_t mid_reduce = 1;
        for (const auto &row : rd) {
            for (int level = 1; level <= cache_at; ++level)
                mid_reduce *= row[level];
        }
        reload = std::sqrt(static_cast<double>(mid_reduce));
    }
    int64_t dram = 0;
    for (size_t i = 0; i < ia.numAccesses(); ++i) {
        int64_t tensor_bytes = ia.accessTensorBytes(i);
        int64_t naive = static_cast<int64_t>(
            static_cast<double>(f.grid) * cells[i] * 4 * reload);
        if (tensor_bytes < spec.l2Bytes / 2) {
            dram += std::max<int64_t>(tensor_bytes, naive / 8);
        } else {
            dram += std::min<int64_t>(naive,
                                      8 * tensor_bytes); // L2 floor on reuse
        }
    }
    dram += f.outputElems * 4; // result write-back
    f.dramBytes = dram;

    // Coalescing: see IndexAnalysis::coalesceFactor.
    if (!op->axis().empty())
        f.coalesceFactor = ia.coalesceFactor();

    // Shared-memory bank conflicts: a power-of-32 leading stride in the
    // staged tile serializes warp lanes.
    if (ia.numAccesses() > 0 && !op->accesses().front()->indices.empty()) {
        int64_t width = tile_last.extent();
        if (width >= 32 && width % 32 == 0)
            f.bankConflictPenalty = 1.25;
    }

    // Validity: the verifier's resource lint owns the device-limit
    // checks; the shim derives valid/invalidReason exactly as the old
    // inline if-chain did.
    verify::applyResourceValidity(out, Target::forGpu(spec));
}

} // namespace ft
