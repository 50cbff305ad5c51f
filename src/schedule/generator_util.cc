#include "schedule/generator_util.h"

#include "schedule/config.h"
#include "support/logging.h"
#include "support/math_util.h"

namespace ft {
namespace gen {

int64_t
footprintBytes(const IndexAnalysis &ia, const Interval *ranges,
               int64_t *cells, Interval *firstLast)
{
    ia.footprints(ranges, cells, firstLast);
    int64_t total = 0;
    for (size_t i = 0; i < ia.numAccesses(); ++i)
        total += cells[i];
    return total * 4;
}

void
setSubLoop(SubLoop &l, const IndexAnalysis &ia, size_t slot,
           const std::vector<int64_t> &row, int level, LoopAnno anno)
{
    FT_ASSERT(level < IndexAnalysis::kNamedLevels, "split level ", level,
              " has no precomputed name");
    int64_t stride = 1;
    for (size_t j = static_cast<size_t>(level) + 1; j < row.size(); ++j)
        stride *= row[j];
    // A reused nest usually holds this very name already.
    const std::string &name = ia.loopName(slot, level);
    if (l.name != name)
        l.name = name;
    l.extent = row[level];
    l.anno = anno;
    l.origin = ia.slotVar(slot);
    l.stride = stride;
    l.level = level;
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
recordGuardedAxes(const ComputeOp *op, const OpConfig &config,
                  LoopNest &nest)
{
    // A split's sub-loops reach product(row) - 1 (the mixed-radix
    // maximum), so an axis overshoots exactly when its row multiplies
    // past the extent.
    nest.guardedAxes.clear();
    for (size_t i = 0; i < op->axis().size(); ++i) {
        if (product(config.spatialSplits[i]) > op->axis()[i]->extent)
            nest.guardedAxes.push_back(op->axis()[i].get());
    }
    for (size_t i = 0; i < op->reduceAxis().size(); ++i) {
        if (product(config.reduceSplits[i]) > op->reduceAxis()[i]->extent)
            nest.guardedAxes.push_back(op->reduceAxis()[i].get());
    }
}

} // namespace gen
} // namespace ft
