#include "schedule/generator.h"

#include <algorithm>
#include <cmath>

#include "analysis/flops.h"
#include "analysis/verify/verify.h"
#include "schedule/generator_util.h"
#include "support/logging.h"
#include "support/math_util.h"

namespace ft {

namespace {

/**
 * Arrange the innermost loop block per the reorder choice.
 * `si` are the per-axis inner spatial sub-loops, `ki` the innermost reduce
 * sub-loops.
 */
std::vector<SubLoop>
innerOrder(int choice, const std::vector<SubLoop> &si,
           const std::vector<SubLoop> &ki)
{
    std::vector<SubLoop> out;
    switch (choice % kNumReorderChoices) {
      case 0: // reduce taps outside, spatial register tile innermost
        out.insert(out.end(), ki.begin(), ki.end());
        out.insert(out.end(), si.begin(), si.end());
        break;
      case 1: // spatial outside, reduce innermost (accumulator chains)
        out.insert(out.end(), si.begin(), si.end());
        out.insert(out.end(), ki.begin(), ki.end());
        break;
      case 2: { // interleave, starting with reduce
        size_t a = 0, b = 0;
        while (a < ki.size() || b < si.size()) {
            if (a < ki.size())
                out.push_back(ki[a++]);
            if (b < si.size())
                out.push_back(si[b++]);
        }
        break;
      }
      default: { // interleave, starting with spatial
        size_t a = 0, b = 0;
        while (a < ki.size() || b < si.size()) {
            if (b < si.size())
                out.push_back(si[b++]);
            if (a < ki.size())
                out.push_back(ki[a++]);
        }
        break;
      }
    }
    return out;
}

} // namespace

void
generateGpuInto(const Operation &anchor, const OpConfig &config,
                const GpuSpec &spec, Scheduled &out)
{
    FT_ASSERT(!anchor->isPlaceholder(), "cannot schedule a placeholder");
    const auto *op = static_cast<const ComputeOp *>(anchor.get());
    gen::checkSplits(op, config, kGpuSpatialLevels, kGpuReduceLevels);

    out.nest.op = anchor;
    out.nest.loops.clear();
    out.features = NestFeatures{};

    // Split every loop. Spatial levels: [block, vthread, thread, inner];
    // reduce levels: [outer, mid, inner].
    std::vector<std::vector<SubLoop>> sp, rd;
    for (size_t i = 0; i < op->axis().size(); ++i)
        sp.push_back(splitLoop(op->axis()[i], config.spatialSplits[i], "s"));
    for (size_t i = 0; i < op->reduceAxis().size(); ++i)
        rd.push_back(splitLoop(op->reduceAxis()[i], config.reduceSplits[i],
                               "r"));

    auto &loops = out.nest.loops;
    std::vector<SubLoop> si, ki;
    for (auto &row : sp) {
        row[0].anno = LoopAnno::BlockX;
        row[1].anno = LoopAnno::VThread;
        row[2].anno = LoopAnno::ThreadX;
        si.push_back(row[3]);
    }
    for (auto &row : rd) {
        ki.push_back(row[2]);
    }
    for (const auto &row : sp)
        loops.push_back(row[0]);
    for (const auto &row : sp)
        loops.push_back(row[1]);
    for (const auto &row : sp)
        loops.push_back(row[2]);
    for (const auto &row : rd)
        loops.push_back(row[0]);
    for (const auto &row : rd)
        loops.push_back(row[1]);
    std::vector<SubLoop> inner = innerOrder(config.reorderChoice, si, ki);
    for (int u = 0;
         u < config.unrollDepth && u < static_cast<int>(inner.size()); ++u) {
        inner[inner.size() - 1 - u].anno = LoopAnno::Unroll;
    }
    loops.insert(loops.end(), inner.begin(), inner.end());
    gen::recordGuardedAxes(op, out.nest);

    // ------------------------------------------------------------------
    // Features.
    NestFeatures &f = out.features;
    f.totalFlops = flopsOf(anchor);
    f.outputElems = product(op->outputShape());

    f.grid = out.nest.extentOf(LoopAnno::BlockX);
    f.threadsPerBlock = out.nest.extentOf(LoopAnno::ThreadX);
    f.vthreads = out.nest.extentOf(LoopAnno::VThread);

    int64_t regTile = 1;
    for (const auto &l : si)
        regTile *= l.extent;
    int64_t reduceWork = 1;
    for (const auto &row : rd)
        for (const auto &l : row)
            reduceWork *= l.extent;
    f.workPerThread = f.vthreads * regTile * reduceWork;
    f.regsPerThread = 16 + 2 * regTile + 4 * config.unrollDepth;
    f.unrollSteps = 1;
    for (int u = 0;
         u < config.unrollDepth && u < static_cast<int>(inner.size()); ++u) {
        f.unrollSteps *= inner[inner.size() - 1 - u].extent;
    }

    // Shared-memory tiles: inputs are staged per block at the configured
    // reduce depth (compute_at). Reduce levels at or above the staging
    // depth are pinned (the tile is reloaded for each of their
    // iterations); deeper levels and all sub-block spatial loops are free.
    const int cache_at =
        std::clamp(config.cacheAtReduceLevel, 0, kGpuReduceLevels - 2);
    auto shared_free = [cache_at](const SubLoop &l) {
        if (l.anno == LoopAnno::BlockX)
            return false;
        if (l.origin->kind == IterKind::Reduce)
            return l.level > cache_at;
        return true;
    };
    VarRanges tile_ranges = gen::rangesWithFree(op, loops, shared_free);
    auto tile_fps = gen::inputFootprints(op, tile_ranges);
    f.sharedBytesPerBlock = gen::footprintBytes(tile_fps);

    // DRAM traffic: per-block footprint over the whole reduction, times
    // the grid; small tensors are assumed to be served mostly from L2.
    // Staging deeper than the default point (compute_at level > 0) pays a
    // reload penalty proportional to the extra staging rounds.
    auto block_free = [](const SubLoop &l) {
        return l.anno != LoopAnno::BlockX;
    };
    VarRanges block_ranges = gen::rangesWithFree(op, loops, block_free);
    auto block_fps = gen::inputFootprints(op, block_ranges);
    double reload = 1.0;
    if (cache_at > 0) {
        int64_t mid_reduce = 1;
        for (const auto &row : rd) {
            for (const auto &l : row) {
                if (l.level > 0 && l.level <= cache_at)
                    mid_reduce *= l.extent;
            }
        }
        reload = std::sqrt(static_cast<double>(mid_reduce));
    }
    int64_t dram = 0;
    for (const auto &fp : block_fps) {
        int64_t tensor_bytes = 4;
        for (int64_t d : fp.accessNode->source->outputShape())
            tensor_bytes *= d;
        int64_t naive = static_cast<int64_t>(
            static_cast<double>(f.grid) * fp.cells * 4 * reload);
        if (tensor_bytes < spec.l2Bytes / 2) {
            dram += std::max<int64_t>(tensor_bytes, naive / 8);
        } else {
            dram += std::min<int64_t>(naive,
                                      8 * tensor_bytes); // L2 floor on reuse
        }
    }
    dram += f.outputElems * 4; // result write-back
    f.dramBytes = dram;

    // Coalescing: the innermost thread-bound spatial axis should appear
    // with unit coefficient in the last index of each access.
    const IterVarNode *inner_thread_axis =
        op->axis().empty() ? nullptr : op->axis().back().get();
    if (inner_thread_axis) {
        int total = 0, good = 0;
        for (const ExprNode *acc : op->accesses()) {
            ++total;
            if (acc->indices.empty())
                continue;
            if (linearCoefficient(acc->indices.back(), inner_thread_axis) ==
                1) {
                ++good;
            }
        }
        double frac = total ? static_cast<double>(good) / total : 1.0;
        f.coalesceFactor = 0.4 + 0.6 * frac;
    }

    // Shared-memory bank conflicts: a power-of-32 leading stride in the
    // staged tile serializes warp lanes.
    if (!tile_fps.empty()) {
        const auto &acc = *tile_fps.front().accessNode;
        if (!acc.indices.empty()) {
            Interval last =
                boundsOf(acc.indices.back(), tile_ranges);
            int64_t width = last.extent();
            if (width >= 32 && width % 32 == 0)
                f.bankConflictPenalty = 1.25;
        }
    }

    // Validity: the verifier's resource lint owns the device-limit
    // checks; the shim derives valid/invalidReason exactly as the old
    // inline if-chain did.
    verify::applyResourceValidity(out, Target::forGpu(spec));
}

} // namespace ft
