#include "schedule/generator_util.h"

#include "schedule/config.h"
#include "support/logging.h"
#include "support/math_util.h"

namespace ft {
namespace gen {

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
checkSplits(const ComputeOp *op, const OpConfig &config, int spatial_levels,
            int reduce_levels)
{
    FT_ASSERT(config.spatialSplits.size() == op->axis().size(),
              "config has ", config.spatialSplits.size(),
              " spatial splits for op with ", op->axis().size(), " axes");
    FT_ASSERT(config.reduceSplits.size() == op->reduceAxis().size(),
              "config has ", config.reduceSplits.size(),
              " reduce splits for op with ", op->reduceAxis().size(),
              " reduce axes");
    for (size_t i = 0; i < config.spatialSplits.size(); ++i) {
        FT_ASSERT(static_cast<int>(config.spatialSplits[i].size()) ==
                      spatial_levels,
                  "spatial split row must have ", spatial_levels, " levels");
        FT_ASSERT(product(config.spatialSplits[i]) >=
                      op->axis()[i]->extent,
                  "spatial split of ", op->axis()[i]->name,
                  " multiplies below extent");
    }
    for (size_t i = 0; i < config.reduceSplits.size(); ++i) {
        FT_ASSERT(static_cast<int>(config.reduceSplits[i].size()) ==
                      reduce_levels,
                  "reduce split row must have ", reduce_levels, " levels");
        FT_ASSERT(product(config.reduceSplits[i]) >=
                      op->reduceAxis()[i]->extent,
                  "reduce split of ", op->reduceAxis()[i]->name,
                  " multiplies below extent");
    }
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

} // namespace gen
} // namespace ft
