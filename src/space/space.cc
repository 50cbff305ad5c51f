#include "space/space.h"

#include <sstream>

#include "schedule/encoder.h"
#include "support/hash.h"
#include "support/logging.h"
#include "support/rng.h"

namespace ft {

std::string
Point::key() const
{
    std::ostringstream oss;
    for (int64_t v : idx)
        oss << v << ";";
    return oss.str();
}

PointKey
Point::key64() const
{
    // FNV-1a over the little-endian bytes of each index;
    // tests/test_perf_paths.cc pins known digests.
    Fnv1a h;
    for (int64_t v : idx)
        h.word(static_cast<uint64_t>(v));
    return h.value();
}

ScheduleSpace::ScheduleSpace(OpConfig base_config)
    : baseConfig_(std::move(base_config))
{}

void
ScheduleSpace::add(std::unique_ptr<SubSpace> sub)
{
    FT_ASSERT(sub != nullptr, "adding null sub-space");
    dirOffset_.push_back(totalDirections_);
    totalDirections_ += sub->numDirections();
    subs_.push_back(std::move(sub));
}

double
ScheduleSpace::size() const
{
    double s = 1.0;
    for (const auto &sub : subs_)
        s *= static_cast<double>(sub->size());
    return s;
}

int
ScheduleSpace::numDirections() const
{
    return totalDirections_;
}

std::optional<Point>
ScheduleSpace::move(const Point &p, int dir) const
{
    FT_ASSERT(p.idx.size() == subs_.size(), "point rank mismatch");
    FT_ASSERT(dir >= 0 && dir < totalDirections_,
              "global direction out of range");
    // Find the owning sub-space.
    int s = static_cast<int>(subs_.size()) - 1;
    while (dirOffset_[s] > dir)
        --s;
    int local = dir - dirOffset_[s];
    int64_t next = subs_[s]->move(p.idx[s], local);
    if (next < 0)
        return std::nullopt;
    Point out = p;
    out.idx[s] = next;
    return out;
}

OpConfig
ScheduleSpace::decode(const Point &p) const
{
    FT_ASSERT(p.idx.size() == subs_.size(), "point rank mismatch");
    OpConfig config = baseConfig_;
    for (size_t s = 0; s < subs_.size(); ++s)
        subs_[s]->apply(p.idx[s], config);
    return config;
}

const OpConfig &
ScheduleSpace::decodeInto(const Point &p, DecodeScratch &scratch) const
{
    FT_ASSERT(p.idx.size() == subs_.size(), "point rank mismatch");
    if (scratch.lastIdx.size() != subs_.size()) {
        scratch.config = baseConfig_;
        for (size_t s = 0; s < subs_.size(); ++s)
            subs_[s]->apply(p.idx[s], scratch.config);
        scratch.lastIdx = p.idx;
        return scratch.config;
    }
    for (size_t s = 0; s < subs_.size(); ++s) {
        if (scratch.lastIdx[s] != p.idx[s]) {
            subs_[s]->apply(p.idx[s], scratch.config);
            scratch.lastIdx[s] = p.idx[s];
        }
    }
    return scratch.config;
}

Point
ScheduleSpace::randomPoint(Rng &rng) const
{
    Point p;
    p.idx.reserve(subs_.size());
    for (const auto &sub : subs_)
        p.idx.push_back(static_cast<int64_t>(
            rng.below(static_cast<uint64_t>(sub->size()))));
    return p;
}

Point
ScheduleSpace::initialPoint() const
{
    Point p;
    p.idx.reserve(subs_.size());
    for (const auto &sub : subs_) {
        if (const auto *split = dynamic_cast<const SplitSubSpace *>(
                sub.get())) {
            p.idx.push_back(split->indexOfTrivial(0));
        } else {
            p.idx.push_back(0);
        }
    }
    return p;
}

std::optional<Point>
ScheduleSpace::pointOf(const OpConfig &config) const
{
    Point p;
    p.idx.reserve(subs_.size());
    for (const auto &sub : subs_) {
        int64_t idx = -1;
        if (const auto *split = dynamic_cast<const SplitSubSpace *>(
                sub.get())) {
            const auto &rows = split->role() == KnobRole::SpatialSplit
                                   ? config.spatialSplits
                                   : config.reduceSplits;
            if (split->axis() < 0 ||
                split->axis() >= static_cast<int>(rows.size())) {
                return std::nullopt;
            }
            idx = split->indexOf(rows[split->axis()]);
        } else if (const auto *choice =
                       dynamic_cast<const ChoiceSubSpace *>(sub.get())) {
            idx = choice->indexOfValue(choice->valueFromConfig(config));
        }
        if (idx < 0)
            return std::nullopt;
        p.idx.push_back(idx);
    }
    return p;
}

std::vector<double>
ScheduleSpace::features(const Point &p) const
{
    std::vector<double> out;
    for (size_t s = 0; s < subs_.size(); ++s) {
        out.push_back(static_cast<double>(p.idx[s]) /
                      static_cast<double>(subs_[s]->size()));
    }
    auto cfg = configFeatures(decode(p));
    out.insert(out.end(), cfg.begin(), cfg.end());
    return out;
}

void
ScheduleSpace::featuresInto(const Point &p, DecodeScratch &scratch,
                            std::vector<double> &out) const
{
    out.clear();
    for (size_t s = 0; s < subs_.size(); ++s) {
        out.push_back(static_cast<double>(p.idx[s]) /
                      static_cast<double>(subs_[s]->size()));
    }
    configFeaturesInto(decodeInto(p, scratch), out);
}

int
ScheduleSpace::featureDim() const
{
    return static_cast<int>(features(initialPoint()).size());
}

} // namespace ft
