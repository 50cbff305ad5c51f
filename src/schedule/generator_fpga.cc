#include "schedule/generator.h"

#include <algorithm>

#include "analysis/verify/verify.h"
#include "schedule/generator_util.h"
#include "support/logging.h"
#include "support/math_util.h"

namespace ft {

void
generateFpgaInto(const Operation &anchor, const OpConfig &config,
                 const FpgaSpec &spec, Scheduled &out)
{
    FT_ASSERT(!anchor->isPlaceholder(), "cannot schedule a placeholder");
    const auto *op = static_cast<const ComputeOp *>(anchor.get());
    gen::checkSplits(op, config, kFpgaSpatialLevels, kFpgaReduceLevels);

    const IndexAnalysis &ia = op->indexAnalysis();

    out.nest.op = anchor;
    out.features = NestFeatures{};

    // Spatial levels: [round, pe]; reduce levels: [stream, inner]. Outer
    // reduce chunks stream through the pipeline as extra rounds with the
    // partial sums held on chip; the inner reduce runs inside each PE's
    // pipelined datapath. Sub-loops are written in place.
    const auto &sp = config.spatialSplits;
    const auto &rd = config.reduceSplits;
    const size_t ns = sp.size(), nr = rd.size();
    auto &loops = out.nest.loops;
    loops.resize(ns * kFpgaSpatialLevels + nr * kFpgaReduceLevels);
    size_t at = 0;
    for (size_t i = 0; i < ns; ++i)
        gen::setSubLoop(loops[at++], ia, i, sp[i], 0);
    for (size_t i = 0; i < nr; ++i)
        gen::setSubLoop(loops[at++], ia, ns + i, rd[i], 0);
    for (size_t i = 0; i < ns; ++i)
        gen::setSubLoop(loops[at++], ia, i, sp[i], 1, LoopAnno::PE);
    for (size_t i = 0; i < nr; ++i)
        gen::setSubLoop(loops[at++], ia, ns + i, rd[i], 1);
    gen::recordGuardedAxes(op, config, out.nest);

    // ------------------------------------------------------------------
    // Features for the three-stage pipeline model (Section 5.2):
    //   T = rounds * max(R, C, W)
    NestFeatures &f = out.features;
    f.totalFlops = ia.flops();
    f.outputElems = product(op->outputShape());
    f.pe = out.nest.extentOf(LoopAnno::PE);
    f.partition = std::max(config.fpgaPartition, 1);

    int64_t rounds = 1;
    for (const auto &row : sp)
        rounds *= row[0];
    for (const auto &row : rd)
        rounds *= row[0];
    f.rounds = rounds;
    f.flopsPerRound = f.totalFlops / static_cast<double>(rounds);

    // Per-round input tile: round and reduce-stream loops pinned, PE
    // lanes and the inner reduction free.
    IndexScratch &scratch = indexScratch();
    scratch.ranges.resize(ia.numSlots());
    scratch.cells.resize(ia.numAccesses());
    gen::rangesWithFree(
        config, [](bool, int level) { return level != 0; },
        scratch.ranges.data());
    int64_t tile_bytes = gen::footprintBytes(ia, scratch.ranges.data(),
                                             scratch.cells.data());
    // The first body access is the streamed activation (weights stay
    // resident on chip); row buffering applies to it alone.
    int64_t streamed_bytes =
        ia.numAccesses() == 0 ? 0 : scratch.cells[0] * 4;

    // Row buffering: halo re-reads between rounds shrink as more rows of
    // the streamed input are kept on chip, at the cost of BRAM capacity.
    int rows = std::max(config.fpgaBufferRows, 1);
    f.readBytesPerRound =
        static_cast<double>(tile_bytes) +
        static_cast<double>(streamed_bytes) * 2.0 / (rows + 1.0);
    f.writeBytesPerRound =
        static_cast<double>(f.outputElems) * 4.0 / rounds;
    f.bufferBytes = tile_bytes + streamed_bytes * (rows - 1);

    verify::applyResourceValidity(out, Target::forFpga(spec));
}

} // namespace ft
