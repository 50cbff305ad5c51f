#include "space/subspace.h"

#include <algorithm>

#include "support/logging.h"
#include "support/math_util.h"

namespace ft {

SplitSubSpace::SplitSubSpace(KnobRole role, int axis, int64_t extent,
                             int parts, bool pow2_only)
    : SubSpace(role, axis,
               (role == KnobRole::SpatialSplit ? "split_s" : "split_r") +
                   std::to_string(axis)),
      extent_(extent),
      parts_(parts)
{
    FT_ASSERT(role == KnobRole::SpatialSplit || role == KnobRole::ReduceSplit,
              "SplitSubSpace requires a split role");
    for (auto &f : factorizations(extent, parts)) {
        if (pow2_only) {
            bool ok = true;
            // The outermost part absorbs the non-power-of-two remainder so
            // the template space stays non-empty for any extent.
            for (size_t i = 1; i < f.size(); ++i)
                ok = ok && isPowerOfTwo(f[i]);
            if (!ok)
                continue;
        }
        entries_.push_back(std::move(f));
    }
    FT_ASSERT(!entries_.empty(), "split sub-space is empty");
}

int64_t
SplitSubSpace::size() const
{
    return static_cast<int64_t>(entries_.size());
}

int
SplitSubSpace::numDirections() const
{
    return parts_ * (parts_ - 1);
}

int64_t
SplitSubSpace::move(int64_t idx, int dir) const
{
    FT_ASSERT(idx >= 0 && idx < size(), "split entry out of range");
    FT_ASSERT(dir >= 0 && dir < numDirections(), "direction out of range");
    // Decode dir into an ordered pair (i, j), i != j.
    int i = dir / (parts_ - 1);
    int j = dir % (parts_ - 1);
    if (j >= i)
        ++j;

    const auto &f = entries_[idx];
    if (f[j] == 1)
        return -1; // nothing to move
    // Smallest prime factor of f[j] gives the nearest neighbor.
    int64_t t = 2;
    while (f[j] % t != 0)
        ++t;
    std::vector<int64_t> g = f;
    g[i] *= t;
    g[j] /= t;
    // Pruned spaces (e.g. power-of-two templates) may lack the neighbor.
    return indexOf(g);
}

void
SplitSubSpace::apply(int64_t idx, OpConfig &config) const
{
    FT_ASSERT(idx >= 0 && idx < size(), "split entry out of range");
    auto &rows = role_ == KnobRole::SpatialSplit ? config.spatialSplits
                                                 : config.reduceSplits;
    FT_ASSERT(axis_ >= 0 && axis_ < static_cast<int>(rows.size()),
              "split axis out of range for config");
    rows[axis_] = entries_[idx];
}

const std::vector<int64_t> &
SplitSubSpace::entry(int64_t idx) const
{
    FT_ASSERT(idx >= 0 && idx < size(), "split entry out of range");
    return entries_[idx];
}

int64_t
SplitSubSpace::indexOfTrivial(int part) const
{
    std::vector<int64_t> f(parts_, 1);
    f[part] = extent_;
    const int64_t idx = indexOf(f);
    return idx < 0 ? 0 : idx;
}

int64_t
SplitSubSpace::indexOf(const std::vector<int64_t> &factors) const
{
    auto it = std::lower_bound(entries_.begin(), entries_.end(), factors);
    if (it == entries_.end() || *it != factors)
        return -1;
    return static_cast<int64_t>(it - entries_.begin());
}

ChoiceSubSpace::ChoiceSubSpace(KnobRole role, std::string name,
                               std::vector<int64_t> values)
    : SubSpace(role, -1, std::move(name)), values_(std::move(values))
{
    FT_ASSERT(!values_.empty(), "choice sub-space needs at least one value");
}

int64_t
ChoiceSubSpace::size() const
{
    return static_cast<int64_t>(values_.size());
}

int64_t
ChoiceSubSpace::move(int64_t idx, int dir) const
{
    FT_ASSERT(idx >= 0 && idx < size(), "choice index out of range");
    int64_t next = dir == 0 ? idx + 1 : idx - 1;
    if (next < 0 || next >= size())
        return -1;
    return next;
}

int64_t
ChoiceSubSpace::indexOfValue(int64_t v) const
{
    for (size_t i = 0; i < values_.size(); ++i) {
        if (values_[i] == v)
            return static_cast<int64_t>(i);
    }
    return -1;
}

int64_t
ChoiceSubSpace::valueFromConfig(const OpConfig &config) const
{
    switch (role_) {
      case KnobRole::Reorder: return config.reorderChoice;
      case KnobRole::Fuse: return config.fuseCount;
      case KnobRole::Unroll: return config.unrollDepth;
      case KnobRole::Vectorize: return config.vectorizeLen;
      case KnobRole::CacheAt: return config.cacheAtReduceLevel;
      case KnobRole::FpgaBufferRows: return config.fpgaBufferRows;
      case KnobRole::FpgaPartition: return config.fpgaPartition;
      default: panic("ChoiceSubSpace with split role");
    }
}

void
ChoiceSubSpace::apply(int64_t idx, OpConfig &config) const
{
    int64_t v = value(idx);
    switch (role_) {
      case KnobRole::Reorder:
        config.reorderChoice = static_cast<int>(v);
        break;
      case KnobRole::Fuse:
        config.fuseCount = static_cast<int>(v);
        break;
      case KnobRole::Unroll:
        config.unrollDepth = static_cast<int>(v);
        break;
      case KnobRole::Vectorize:
        config.vectorizeLen = static_cast<int>(v);
        break;
      case KnobRole::CacheAt:
        config.cacheAtReduceLevel = static_cast<int>(v);
        break;
      case KnobRole::FpgaBufferRows:
        config.fpgaBufferRows = static_cast<int>(v);
        break;
      case KnobRole::FpgaPartition:
        config.fpgaPartition = static_cast<int>(v);
        break;
      default:
        panic("ChoiceSubSpace with split role");
    }
}

} // namespace ft
