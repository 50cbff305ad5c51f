/**
 * @file
 * The tree-walking reference lowering and verifier (test oracle).
 *
 * Before operators carried an IndexAnalysis, every trial lowered and
 * verified by walking the operator's expression trees through
 * unordered_map variable ranges: the generators' footprints through
 * boundsOf/accessFootprint, the bounds prover through boundsWithAtoms
 * and guard atoms it rebuilt per trial. That code is kept here, as it
 * was, so the differential tests can demand field-for-field equality
 * of the nests, the NestFeatures and every Diag of the production
 * path. Only the schedule-independent guard matching (matchDelta,
 * extractGuardAtoms) is shared with the library.
 */
#include "tree_walk.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/bounds.h"
#include "analysis/flops.h"
#include "analysis/index_analysis.h"
#include "analysis/verify/verify.h"
#include "schedule/generator.h"
#include "schedule/generator_util.h"
#include "support/logging.h"
#include "support/math_util.h"

namespace ft {
namespace oracle {

using verify::Diag;
using verify::DiagReport;
using verify::Severity;
using namespace verify; // diagnostic codes, annoName, isConcurrentAnno

namespace {


void
checkGpu(const NestFeatures &f, const GpuSpec &spec, DiagReport &out)
{
    // Error checks in legacy order; messages must stay bit-identical to
    // the old generator strings (tests match on them).
    if (f.threadsPerBlock > spec.maxThreadsPerBlock) {
        out.add({kResThreadsPerBlock, Severity::Error, "", "",
                 "too many threads per block"});
    }
    if (f.sharedBytesPerBlock > spec.sharedMemPerBlock) {
        out.add({kResSharedMem, Severity::Error, "", "",
                 "shared memory tile exceeds per-block limit"});
    }
    if (f.regsPerThread > spec.regsPerThreadMax) {
        out.add({kResRegisters, Severity::Error, "", "",
                 "register tile exceeds per-thread budget"});
    }
    if (f.vthreads > 64) {
        out.add({kResVthreads, Severity::Error, "", "",
                 "too many virtual threads"});
    }
}

void
checkFpga(const NestFeatures &f, const FpgaSpec &spec,
          const OpConfig *config, DiagReport &out)
{
    if (f.pe > spec.maxPe()) {
        out.add({kResPeBudget, Severity::Error, "", "",
                 "PE count exceeds DSP budget"});
    }
    if (f.bufferBytes > spec.bramBytes) {
        out.add({kResBramBudget, Severity::Error, "", "",
                 "on-chip buffer exceeds BRAM capacity"});
    }
    if (config && config->fpgaPartition > 1 &&
        config->fpgaBufferRows % config->fpgaPartition != 0) {
        out.add({kResPartition, Severity::Warning, "", "",
                 "memory partition factor " +
                     std::to_string(config->fpgaPartition) +
                     " does not divide the " +
                     std::to_string(config->fpgaBufferRows) +
                     " buffered rows: banks fill unevenly"});
    }
}

void
checkCpu(const NestFeatures &f, const CpuSpec &spec,
         const OpConfig *config, DiagReport &out)
{
    if (!config)
        return;
    if (config->vectorizeLen > spec.vecLanes) {
        out.add({kResVectorLanes, Severity::Warning, "", "",
                 "requested vector length " +
                     std::to_string(config->vectorizeLen) + " exceeds the " +
                     std::to_string(spec.vecLanes) + " SIMD lanes of " +
                     spec.name});
    } else if (f.vecLen < config->vectorizeLen) {
        out.add({kResVectorLanes, Severity::Warning, "", "",
                 "vectorize length " +
                     std::to_string(config->vectorizeLen) +
                     " is not filled by the innermost spatial extent "
                     "(only " +
                     std::to_string(f.vecLen) + " lanes used)"});
    }
}


void
checksResources(const LoopNest &nest, const NestFeatures &features,
               const Target &target, const OpConfig *config,
               DiagReport &out)
{
    (void)nest; // limits are proven on the extracted features
    switch (target.kind) {
      case DeviceKind::Gpu:
        checkGpu(features, *target.gpu, out);
        break;
      case DeviceKind::Cpu:
        checkCpu(features, *target.cpu, config, out);
        break;
      case DeviceKind::Fpga:
        checkFpga(features, *target.fpga, config, out);
        break;
    }
}


/** Footprint of one input access under the given ranges, in elements. */
struct InputFootprint
{
    const ExprNode *accessNode;
    int64_t cells;
};

/** The legacy in-generator validity if-chain (first failure wins). */
void
legacyValidity(NestFeatures &f, const Target &target)
{
    DiagReport report;
    checksResources(LoopNest{}, f, target, nullptr, report);
    const Diag *e = report.firstError();
    f.valid = e == nullptr;
    f.invalidReason = e ? e->message : "";
}

VarRanges
rangesWithFree(const ComputeOp *op, const std::vector<SubLoop> &loops,
               const std::function<bool(const SubLoop &)> &isFree)
{
    VarRanges ranges;
    for (const auto &iv : op->axis())
        ranges[iv.get()] = Interval{0, 0};
    for (const auto &iv : op->reduceAxis())
        ranges[iv.get()] = Interval{0, 0};
    for (const auto &l : loops) {
        if (!isFree(l))
            continue;
        auto it = ranges.find(l.origin);
        FT_ASSERT(it != ranges.end(), "sub-loop with foreign origin");
        it->second.hi += (l.extent - 1) * l.stride;
    }
    return ranges;
}

std::vector<InputFootprint>
inputFootprints(const ComputeOp *op, const VarRanges &ranges)
{
    std::vector<InputFootprint> out;
    for (const ExprNode *acc : op->accesses())
        out.push_back({acc, accessFootprint(*acc, ranges)});
    return out;
}

int64_t
footprintBytes(const std::vector<InputFootprint> &fps)
{
    int64_t cells = 0;
    for (const auto &fp : fps)
        cells += fp.cells;
    return cells * 4;
}

void
recordGuardedAxes(const ComputeOp *op, LoopNest &nest)
{
    nest.guardedAxes.clear();
    auto span = [&nest](const IterVarNode *origin) {
        int64_t hi = 0;
        for (const SubLoop &l : nest.loops) {
            if (l.origin == origin)
                hi += (l.extent - 1) * l.stride;
        }
        return hi;
    };
    for (const auto &iv : op->axis()) {
        if (span(iv.get()) > iv->extent - 1)
            nest.guardedAxes.push_back(iv.get());
    }
    for (const auto &iv : op->reduceAxis()) {
        if (span(iv.get()) > iv->extent - 1)
            nest.guardedAxes.push_back(iv.get());
    }
}

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


void
gpuInto(const Operation &anchor, const OpConfig &config,
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
    recordGuardedAxes(op, out.nest);

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
    VarRanges tile_ranges = rangesWithFree(op, loops, shared_free);
    auto tile_fps = inputFootprints(op, tile_ranges);
    f.sharedBytesPerBlock = footprintBytes(tile_fps);

    // DRAM traffic: per-block footprint over the whole reduction, times
    // the grid; small tensors are assumed to be served mostly from L2.
    // Staging deeper than the default point (compute_at level > 0) pays a
    // reload penalty proportional to the extra staging rounds.
    auto block_free = [](const SubLoop &l) {
        return l.anno != LoopAnno::BlockX;
    };
    VarRanges block_ranges = rangesWithFree(op, loops, block_free);
    auto block_fps = inputFootprints(op, block_ranges);
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
    legacyValidity(out.features, Target::forGpu(spec));
}

void
cpuInto(const Operation &anchor, const OpConfig &config,
                const CpuSpec &spec, Scheduled &out)
{
    FT_ASSERT(!anchor->isPlaceholder(), "cannot schedule a placeholder");
    const auto *op = static_cast<const ComputeOp *>(anchor.get());
    gen::checkSplits(op, config, kCpuSpatialLevels, kCpuReduceLevels);

    out.nest.op = anchor;
    out.nest.loops.clear();
    out.features = NestFeatures{};

    // Spatial levels: [outer (parallel candidates), mid, inner];
    // reduce levels: [outer, inner].
    std::vector<std::vector<SubLoop>> sp, rd;
    for (size_t i = 0; i < op->axis().size(); ++i)
        sp.push_back(splitLoop(op->axis()[i], config.spatialSplits[i], "s"));
    for (size_t i = 0; i < op->reduceAxis().size(); ++i)
        rd.push_back(splitLoop(op->reduceAxis()[i], config.reduceSplits[i],
                               "r"));

    int fuse = std::clamp<int>(config.fuseCount, 1,
                               static_cast<int>(sp.size()));
    auto &loops = out.nest.loops;
    // The first `fuse` outer loops form the fused parallel hyper-loop.
    for (int i = 0; i < static_cast<int>(sp.size()); ++i) {
        sp[i][0].anno =
            i < fuse ? LoopAnno::Parallel : LoopAnno::Serial;
        loops.push_back(sp[i][0]);
    }
    for (const auto &row : sp)
        loops.push_back(row[1]);
    for (const auto &row : rd)
        loops.push_back(row[0]);

    // Inner block: register/L1 tile. Reorder choice arranges the inner
    // spatial tile against the inner reduce steps.
    std::vector<SubLoop> si, ki;
    for (const auto &row : sp)
        si.push_back(row[2]);
    for (const auto &row : rd)
        ki.push_back(row[1]);

    std::vector<SubLoop> inner;
    switch (config.reorderChoice % kNumReorderChoices) {
      case 0:
        inner.insert(inner.end(), ki.begin(), ki.end());
        inner.insert(inner.end(), si.begin(), si.end());
        break;
      case 1:
        inner.insert(inner.end(), si.begin(), si.end());
        inner.insert(inner.end(), ki.begin(), ki.end());
        break;
      case 2: {
        size_t a = 0, b = 0;
        while (a < ki.size() || b < si.size()) {
            if (a < ki.size())
                inner.push_back(ki[a++]);
            if (b < si.size())
                inner.push_back(si[b++]);
        }
        break;
      }
      default: {
        // Keep the innermost spatial loop last but hoist the reduce chain
        // directly around it (good for FMA accumulation).
        inner.insert(inner.end(), si.begin(), si.end());
        if (!inner.empty()) {
            SubLoop last = inner.back();
            inner.pop_back();
            inner.insert(inner.end(), ki.begin(), ki.end());
            inner.push_back(last);
        } else {
            inner.insert(inner.end(), ki.begin(), ki.end());
        }
        break;
      }
    }
    // The innermost spatial sub-loop is the vectorized one.
    for (auto it = inner.rbegin(); it != inner.rend(); ++it) {
        if (it->origin->kind == IterKind::Spatial) {
            it->anno = LoopAnno::Vectorize;
            break;
        }
    }
    for (int u = 0;
         u < config.unrollDepth && u < static_cast<int>(inner.size()); ++u) {
        auto &l = inner[inner.size() - 1 - u];
        if (l.anno == LoopAnno::Serial)
            l.anno = LoopAnno::Unroll;
    }
    loops.insert(loops.end(), inner.begin(), inner.end());
    recordGuardedAxes(op, out.nest);

    // ------------------------------------------------------------------
    // Features.
    NestFeatures &f = out.features;
    f.totalFlops = flopsOf(anchor);
    f.outputElems = product(op->outputShape());
    f.parallelExtent = out.nest.extentOf(LoopAnno::Parallel);

    // Effective vector width: lanes actually filled by the innermost
    // spatial sub-loop, capped by the requested length.
    int64_t inner_sp = 1;
    for (const auto &l : inner) {
        if (l.anno == LoopAnno::Vectorize)
            inner_sp = l.extent;
    }
    f.vecLen = static_cast<int>(
        std::min<int64_t>(config.vectorizeLen,
                          largestPowerOfTwoDivisor(inner_sp)));
    f.vecLen = std::max(f.vecLen, 1);

    f.unrollSteps = 1;
    for (const auto &l : inner) {
        if (l.anno == LoopAnno::Unroll)
            f.unrollSteps *= l.extent;
    }

    // L1 tile: the inner block (si x ki) footprint.
    auto l1_free = [](const SubLoop &l) { return l.level >= 2 ||
        (l.origin->kind == IterKind::Reduce && l.level >= 1); };
    VarRanges l1_ranges = rangesWithFree(op, loops, l1_free);
    f.l1TileBytes = footprintBytes(inputFootprints(op, l1_ranges));

    // L2 tile: everything below the parallel level.
    auto l2_free = [](const SubLoop &l) {
        return !(l.origin->kind == IterKind::Spatial && l.level == 0);
    };
    VarRanges l2_ranges = rangesWithFree(op, loops, l2_free);
    f.l2TileBytes = footprintBytes(inputFootprints(op, l2_ranges));

    // DRAM traffic: per-parallel-task footprint times task count, floored
    // by tensor size and discounted by L3 reuse for small tensors.
    auto task_fps = inputFootprints(op, l2_ranges);
    int64_t tasks = 1;
    for (const auto &row : sp)
        tasks *= row[0].extent;
    int64_t dram = 0;
    for (const auto &fp : task_fps) {
        int64_t tensor_bytes = 4;
        for (int64_t d : fp.accessNode->source->outputShape())
            tensor_bytes *= d;
        int64_t naive = tasks * fp.cells * 4;
        if (tensor_bytes < spec.l3Bytes / 2)
            dram += std::max<int64_t>(tensor_bytes, naive / 16);
        else
            dram += naive;
    }
    dram += f.outputElems * 4;
    f.cpuDramBytes = dram;

    // No CPU device limit gates validity; the shim keeps valid == true.
    legacyValidity(out.features, Target::forCpu(spec));
}

void
fpgaInto(const Operation &anchor, const OpConfig &config,
                 const FpgaSpec &spec, Scheduled &out)
{
    FT_ASSERT(!anchor->isPlaceholder(), "cannot schedule a placeholder");
    const auto *op = static_cast<const ComputeOp *>(anchor.get());
    gen::checkSplits(op, config, kFpgaSpatialLevels, kFpgaReduceLevels);

    out.nest.op = anchor;
    out.nest.loops.clear();
    out.features = NestFeatures{};

    // Spatial levels: [round, pe]; reduce levels: [stream, inner]. Outer
    // reduce chunks stream through the pipeline as extra rounds with the
    // partial sums held on chip; the inner reduce runs inside each PE's
    // pipelined datapath.
    std::vector<std::vector<SubLoop>> sp, rd;
    for (size_t i = 0; i < op->axis().size(); ++i)
        sp.push_back(splitLoop(op->axis()[i], config.spatialSplits[i], "s"));
    for (size_t i = 0; i < op->reduceAxis().size(); ++i)
        rd.push_back(splitLoop(op->reduceAxis()[i], config.reduceSplits[i],
                               "r"));

    auto &loops = out.nest.loops;
    for (const auto &row : sp)
        loops.push_back(row[0]);
    for (const auto &row : rd)
        loops.push_back(row[0]);
    for (auto &row : sp) {
        row[1].anno = LoopAnno::PE;
        loops.push_back(row[1]);
    }
    for (const auto &row : rd)
        loops.push_back(row[1]);
    recordGuardedAxes(op, out.nest);

    // ------------------------------------------------------------------
    // Features for the three-stage pipeline model (Section 5.2):
    //   T = rounds * max(R, C, W)
    NestFeatures &f = out.features;
    f.totalFlops = flopsOf(anchor);
    f.outputElems = product(op->outputShape());
    f.pe = out.nest.extentOf(LoopAnno::PE);
    f.partition = std::max(config.fpgaPartition, 1);

    int64_t rounds = 1;
    for (const auto &row : sp)
        rounds *= row[0].extent;
    for (const auto &row : rd)
        rounds *= row[0].extent;
    f.rounds = rounds;
    f.flopsPerRound = f.totalFlops / static_cast<double>(rounds);

    // Per-round input tile: round and reduce-stream loops pinned, PE
    // lanes and the inner reduction free.
    auto round_free = [](const SubLoop &l) { return l.level != 0; };
    VarRanges tile_ranges = rangesWithFree(op, loops, round_free);
    auto tile_fps = inputFootprints(op, tile_ranges);
    int64_t tile_bytes = footprintBytes(tile_fps);
    // The first body access is the streamed activation (weights stay
    // resident on chip); row buffering applies to it alone.
    int64_t streamed_bytes =
        tile_fps.empty() ? 0 : tile_fps.front().cells * 4;

    // Row buffering: halo re-reads between rounds shrink as more rows of
    // the streamed input are kept on chip, at the cost of BRAM capacity.
    int rows = std::max(config.fpgaBufferRows, 1);
    f.readBytesPerRound =
        static_cast<double>(tile_bytes) +
        static_cast<double>(streamed_bytes) * 2.0 / (rows + 1.0);
    f.writeBytesPerRound =
        static_cast<double>(f.outputElems) * 4.0 / rounds;
    f.bufferBytes = tile_bytes + streamed_bytes * (rows - 1);

    legacyValidity(out.features, Target::forFpga(spec));
}


/** Sub-loops of one original axis, with the span they reach. */
struct AxisLoops
{
    const IterVarNode *origin = nullptr;
    std::vector<const SubLoop *> loops;
    int64_t lo = 0; ///< minimum reachable original index
    int64_t hi = 0; ///< maximum reachable original index
    int64_t tuples = 1; ///< number of sub-loop index tuples
    bool anyConcurrent = false;
};

std::string
axisAccess(const ComputeOp *op, const IterVarNode *axis)
{
    return op->name() + "[" + axis->name + "]";
}

/**
 * The mixed-radix map of one axis is injective iff, with sub-loops
 * sorted by descending stride, each stride exceeds the furthest index
 * the inner sub-loops can reach together. Exact splits satisfy this by
 * construction (stride_i == product of inner extents). Returns the
 * offending sub-loop when the condition fails.
 */
const SubLoop *
findAlias(const AxisLoops &axis)
{
    std::vector<const SubLoop *> sorted;
    for (const SubLoop *l : axis.loops) {
        if (l->extent > 1)
            sorted.push_back(l);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const SubLoop *a, const SubLoop *b) {
                  return a->stride > b->stride;
              });
    for (size_t i = 0; i < sorted.size(); ++i) {
        int64_t inner_span = 0;
        for (size_t j = i + 1; j < sorted.size(); ++j)
            inner_span += (sorted[j]->extent - 1) * sorted[j]->stride;
        if (sorted[i]->stride <= inner_span)
            return sorted[i];
    }
    return nullptr;
}


void
checksRaces(const LoopNest &nest, DiagReport &out)
{
    if (!nest.op || nest.op->isPlaceholder())
        return;
    const auto *op = static_cast<const ComputeOp *>(nest.op.get());

    // FT-RACE-001: a reduce iteration bound to concurrent hardware.
    for (const SubLoop &l : nest.loops) {
        if (!l.origin || l.origin->kind != IterKind::Reduce)
            continue;
        if (l.extent > 1 && isConcurrentAnno(l.anno)) {
            out.add({kRaceReduceParallel, Severity::Error, l.name,
                     axisAccess(op, l.origin),
                     "reduce axis '" + l.origin->name + "' sub-loop '" +
                         l.name + "' carries annotation '" +
                         annoName(l.anno) +
                         "': concurrent iterations accumulate into the "
                         "same output element (write-write race)"});
        }
    }

    // Group sub-loops by their original axis.
    std::vector<AxisLoops> axes;
    auto groupOf = [&axes](const IterVarNode *origin) -> AxisLoops & {
        for (AxisLoops &a : axes) {
            if (a.origin == origin)
                return a;
        }
        axes.push_back(AxisLoops{});
        axes.back().origin = origin;
        return axes.back();
    };
    for (const auto &iv : op->axis())
        groupOf(iv.get());
    for (const auto &iv : op->reduceAxis())
        groupOf(iv.get());
    for (const SubLoop &l : nest.loops) {
        if (!l.origin)
            continue;
        AxisLoops &a = groupOf(l.origin);
        a.loops.push_back(&l);
        int64_t reach = (l.extent - 1) * l.stride;
        a.lo += std::min<int64_t>(reach, 0);
        a.hi += std::max<int64_t>(reach, 0);
        a.tuples *= std::max<int64_t>(l.extent, 1);
        a.anyConcurrent =
            a.anyConcurrent || (l.extent > 1 && isConcurrentAnno(l.anno));
    }

    for (const AxisLoops &a : axes) {
        // FT-RACE-002/003: stride aliasing on output-writing (spatial)
        // axes. Reduce-axis aliasing double-counts terms but never adds
        // a writer, so it is reported through coverage below instead.
        if (a.origin->kind == IterKind::Spatial) {
            if (const SubLoop *offender = findAlias(a)) {
                std::string what =
                    "sub-loops of spatial axis '" + a.origin->name +
                    "' alias: stride " + std::to_string(offender->stride) +
                    " of '" + offender->name +
                    "' is covered by the span of the inner sub-loops, so "
                    "distinct iterations map to the same output element";
                if (a.anyConcurrent) {
                    out.add({kRaceStrideAlias, Severity::Error,
                             offender->name, axisAccess(op, a.origin),
                             what + " (concurrent write-write race)"});
                } else {
                    out.add({kRaceSerialAlias, Severity::Warning,
                             offender->name, axisAccess(op, a.origin),
                             what + " (serial repeated write)"});
                }
            }
        }

        // FT-COV-001: the reachable set must cover [0, extent). The
        // reachable-count bound is min(#tuples, span width); either one
        // falling short proves some original iteration never runs.
        int64_t extent = a.origin->extent;
        int64_t span = a.hi - a.lo + 1;
        int64_t reachable = std::min<int64_t>(a.tuples, span);
        if (a.lo > 0 || a.hi < extent - 1 || reachable < extent) {
            const char *consequence =
                a.origin->kind == IterKind::Spatial
                    ? "some output elements are never written"
                    : "some reduction terms are never accumulated";
            out.add({kCovUnderCoverage, Severity::Error,
                     a.loops.empty() ? std::string() : a.loops[0]->name,
                     axisAccess(op, a.origin),
                     "sub-loops of axis '" + a.origin->name + "' reach " +
                         std::to_string(reachable) + " of " +
                         std::to_string(extent) + " iterations ([" +
                         std::to_string(a.lo) + ", " +
                         std::to_string(a.hi) + "]): " + consequence});
        }
    }
}


/** Saturation bound for intervals the analysis cannot pin down. */
constexpr int64_t kWide = int64_t(1) << 40;

/** One guard fact: lhs <= rhs holds inside the guarded branch. */
using Atom = GuardAtom;

bool
isEmpty(const Interval &i)
{
    return i.lo > i.hi;
}

Interval
emptyInterval()
{
    return Interval{1, 0};
}

Interval
wideInterval()
{
    return Interval{-kWide, kWide};
}

Interval boundsWithAtoms(const Expr &e, const std::vector<Atom> &atoms,
                         const VarRanges &ranges);

/**
 * Tighten `raw` with every atom whose side matches `e` up to a constant
 * offset: e == lhs + d gives e <= hi(rhs) + d, e == rhs + d gives
 * e >= lo(lhs) + d.
 */
Interval
refineWithAtoms(Interval raw, const Expr &e, const std::vector<Atom> &atoms,
                const VarRanges &ranges)
{
    static const std::vector<Atom> kNoAtoms;
    for (const Atom &atom : atoms) {
        if (auto d = matchDelta(e, atom.lhs)) {
            Interval rhs = boundsWithAtoms(atom.rhs, kNoAtoms, ranges);
            if (!isEmpty(rhs))
                raw.hi = std::min(raw.hi, rhs.hi + *d);
        }
        if (auto d = matchDelta(e, atom.rhs)) {
            Interval lhs = boundsWithAtoms(atom.lhs, kNoAtoms, ranges);
            if (!isEmpty(lhs))
                raw.lo = std::max(raw.lo, lhs.lo + *d);
        }
    }
    return raw;
}

Interval
combine4(int64_t a, int64_t b, int64_t c, int64_t d)
{
    return Interval{std::min(std::min(a, b), std::min(c, d)),
                    std::max(std::max(a, b), std::max(c, d))};
}

/**
 * boundsOf with guard atoms: same interval arithmetic, but every
 * subexpression is additionally refined against the atoms, unsupported
 * operations widen instead of panicking, and an empty child interval
 * (an unreachable guard combination) propagates up.
 */
Interval
boundsWithAtoms(const Expr &e, const std::vector<Atom> &atoms,
                const VarRanges &ranges)
{
    if (!e)
        return wideInterval();
    Interval raw;
    switch (e->kind) {
      case ExprKind::IntImm:
        raw = {e->intValue, e->intValue};
        break;
      case ExprKind::Var: {
        auto it = ranges.find(e->var.get());
        raw = it != ranges.end() ? it->second
                                 : Interval{0, e->var->extent - 1};
        break;
      }
      case ExprKind::Add: {
        Interval a = boundsWithAtoms(e->a, atoms, ranges);
        Interval b = boundsWithAtoms(e->b, atoms, ranges);
        if (isEmpty(a) || isEmpty(b))
            return emptyInterval();
        raw = {a.lo + b.lo, a.hi + b.hi};
        break;
      }
      case ExprKind::Sub: {
        Interval a = boundsWithAtoms(e->a, atoms, ranges);
        Interval b = boundsWithAtoms(e->b, atoms, ranges);
        if (isEmpty(a) || isEmpty(b))
            return emptyInterval();
        raw = {a.lo - b.hi, a.hi - b.lo};
        break;
      }
      case ExprKind::Mul: {
        Interval a = boundsWithAtoms(e->a, atoms, ranges);
        Interval b = boundsWithAtoms(e->b, atoms, ranges);
        if (isEmpty(a) || isEmpty(b))
            return emptyInterval();
        raw = combine4(a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi);
        break;
      }
      case ExprKind::Div: {
        Interval a = boundsWithAtoms(e->a, atoms, ranges);
        Interval b = boundsWithAtoms(e->b, atoms, ranges);
        if (isEmpty(a) || isEmpty(b))
            return emptyInterval();
        if (b.lo <= 0) {
            raw = wideInterval(); // divisor range not provably positive
            break;
        }
        raw = combine4(a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi);
        break;
      }
      case ExprKind::Mod: {
        Interval a = boundsWithAtoms(e->a, atoms, ranges);
        Interval b = boundsWithAtoms(e->b, atoms, ranges);
        if (isEmpty(a) || isEmpty(b))
            return emptyInterval();
        if (b.lo <= 0) {
            raw = wideInterval();
            break;
        }
        if (a.lo >= 0 && a.lo / b.lo == a.hi / b.lo && b.lo == b.hi)
            raw = {a.lo % b.lo, a.hi % b.lo};
        else
            raw = {0, b.hi - 1};
        break;
      }
      case ExprKind::Min: {
        Interval a = boundsWithAtoms(e->a, atoms, ranges);
        Interval b = boundsWithAtoms(e->b, atoms, ranges);
        if (isEmpty(a) || isEmpty(b))
            return emptyInterval();
        raw = {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
        break;
      }
      case ExprKind::Max: {
        Interval a = boundsWithAtoms(e->a, atoms, ranges);
        Interval b = boundsWithAtoms(e->b, atoms, ranges);
        if (isEmpty(a) || isEmpty(b))
            return emptyInterval();
        raw = {std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
        break;
      }
      case ExprKind::Select: {
        Interval a = boundsWithAtoms(e->b, atoms, ranges);
        Interval b = boundsWithAtoms(e->c, atoms, ranges);
        if (isEmpty(a))
            return b;
        if (isEmpty(b))
            return a;
        raw = {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
        break;
      }
      case ExprKind::CmpLT:
      case ExprKind::CmpLE:
      case ExprKind::CmpEQ:
      case ExprKind::And:
      case ExprKind::Or:
        raw = {0, 1};
        break;
      default: // FloatImm / Access: not an integer index expression
        raw = wideInterval();
        break;
    }
    if (!atoms.empty())
        raw = refineWithAtoms(raw, e, atoms, ranges);
    return raw;
}

struct ProverCtx
{
    VarRanges ranges;
    DiagReport *out = nullptr;
};

void
reportAccess(ProverCtx &ctx, const ExprNode &acc, size_t dim,
             const Interval &got, int64_t extent)
{
    std::string where =
        acc.source->name() + "[" + std::to_string(dim) + "]";
    std::string interval = "[" + std::to_string(got.lo) + ", " +
                           std::to_string(got.hi) + "]";
    if (got.lo < 0) {
        ctx.out->add({kOobUnderflow, Severity::Error, "", where,
                      "access index of " + where + " spans " + interval +
                          ": reads below element 0"});
    }
    if (got.hi > extent - 1) {
        ctx.out->add({kOobOverflow, Severity::Error, "", where,
                      "access index of " + where + " spans " + interval +
                          ": exceeds extent " + std::to_string(extent)});
    }
}

void
walkBody(const Expr &e, std::vector<Atom> &atoms, ProverCtx &ctx)
{
    if (!e)
        return;
    switch (e->kind) {
      case ExprKind::Select: {
        // Condition evaluates unconditionally; the then-branch runs
        // under the condition's atoms; the else-branch gains nothing
        // (negations are not tracked).
        walkBody(e->a, atoms, ctx);
        size_t base = atoms.size();
        extractGuardAtoms(e->a, atoms);
        walkBody(e->b, atoms, ctx);
        atoms.resize(base);
        walkBody(e->c, atoms, ctx);
        break;
      }
      case ExprKind::Access: {
        const auto &shape = e->source->outputShape();
        for (size_t d = 0; d < e->indices.size(); ++d) {
            Interval b = boundsWithAtoms(e->indices[d], atoms, ctx.ranges);
            if (isEmpty(b))
                continue; // guard combination is unreachable
            int64_t extent = d < shape.size() ? shape[d] : 1;
            if (b.lo < 0 || b.hi > extent - 1)
                reportAccess(ctx, *e, d, b, extent);
            walkBody(e->indices[d], atoms, ctx);
        }
        break;
      }
      default:
        walkBody(e->a, atoms, ctx);
        walkBody(e->b, atoms, ctx);
        walkBody(e->c, atoms, ctx);
        break;
    }
}


void
checksAccessBounds(const LoopNest &nest, DiagReport &out)
{
    if (!nest.op || nest.op->isPlaceholder())
        return;
    const auto *op = static_cast<const ComputeOp *>(nest.op.get());

    // Realized range of every original variable: the stride-weighted
    // span of its sub-loops (NOT the declared extent — widened splits
    // must surface as wider ranges here).
    ProverCtx ctx;
    ctx.out = &out;
    for (const auto &iv : op->axis())
        ctx.ranges[iv.get()] = Interval{0, 0};
    for (const auto &iv : op->reduceAxis())
        ctx.ranges[iv.get()] = Interval{0, 0};
    for (const SubLoop &l : nest.loops) {
        if (!l.origin)
            continue;
        auto it = ctx.ranges.find(l.origin);
        if (it == ctx.ranges.end())
            continue;
        int64_t reach = (l.extent - 1) * l.stride;
        it->second.lo += std::min<int64_t>(reach, 0);
        it->second.hi += std::max<int64_t>(reach, 0);
    }

    // Guarded (imperfectly tiled) axes declare that executors and
    // emitters skip every iteration with value >= extent, so the range
    // the body actually sees is the raw span clamped to the data. An
    // axis that overshoots WITHOUT being declared guarded keeps its raw
    // span and fails the proofs below — this is how the prover gates
    // imperfect tiles instead of the old divisibility assertion.
    for (const IterVarNode *g : nest.guardedAxes) {
        auto it = ctx.ranges.find(g);
        if (it == ctx.ranges.end())
            continue;
        it->second.lo = std::max<int64_t>(it->second.lo, 0);
        it->second.hi = std::min<int64_t>(it->second.hi, g->extent - 1);
    }

    // Output write O[i1..iM]: each spatial index must stay within the
    // output extent (an over-wide split writes past the buffer).
    const auto &shape = op->outputShape();
    for (size_t d = 0; d < op->axis().size() && d < shape.size(); ++d) {
        const Interval &r = ctx.ranges.at(op->axis()[d].get());
        std::string where = op->name() + "[" + std::to_string(d) + "]";
        std::string interval = "[" + std::to_string(r.lo) + ", " +
                               std::to_string(r.hi) + "]";
        if (r.lo < 0) {
            out.add({kOobUnderflow, Severity::Error,
                     op->axis()[d]->name, where,
                     "output write index of " + where + " spans " +
                         interval + ": writes below element 0"});
        }
        if (r.hi > shape[d] - 1) {
            out.add({kOobOverflow, Severity::Error, op->axis()[d]->name,
                     where,
                     "output write index of " + where + " spans " +
                         interval + ": exceeds extent " +
                         std::to_string(shape[d])});
        }
    }

    // Every read in the body, guard-aware.
    std::vector<Atom> atoms;
    walkBody(op->body(), atoms, ctx);
}

} // namespace

Scheduled
lower(const Operation &anchor, const OpConfig &config,
         const Target &target)
{
    Scheduled out;
    switch (target.kind) {
      case DeviceKind::Gpu:
        gpuInto(anchor, config, *target.gpu, out);
        break;
      case DeviceKind::Cpu:
        cpuInto(anchor, config, *target.cpu, out);
        break;
      case DeviceKind::Fpga:
        fpgaInto(anchor, config, *target.fpga, out);
        break;
    }
    return out;
}

void
check(const Scheduled &s, const Target &target, const OpConfig *config,
       DiagReport &out)
{
    checksRaces(s.nest, out);
    checksAccessBounds(s.nest, out);
    checksResources(s.nest, s.features, target, config, out);
}

} // namespace oracle
} // namespace ft
