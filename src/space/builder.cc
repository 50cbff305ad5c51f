#include "space/builder.h"

#include "obs/trace.h"
#include "schedule/generator.h"
#include "support/hash.h"
#include "support/logging.h"
#include "support/setup_store.h"

namespace ft {

namespace {

/** Everything buildSpace reads, compared exactly. */
struct SpaceKey
{
    DeviceKind kind = DeviceKind::Gpu;
    std::vector<int64_t> spatial; ///< the anchor's axis extents
    std::vector<int64_t> reduce;  ///< its reduce-axis extents
    SpaceOptions options;

    bool operator==(const SpaceKey &) const = default;

    uint64_t hash() const
    {
        Fnv1a h;
        h.word(static_cast<uint64_t>(kind));
        for (const auto *extents :
             {&spatial, &reduce, &options.spatialExtentOverride}) {
            h.word(extents->size());
            for (int64_t e : *extents)
                h.word(static_cast<uint64_t>(e));
        }
        h.word(options.templateRestricted | (options.pow2Splits << 1) |
               (options.exploreCacheAt << 2));
        return h.value();
    }
};

SetupStore<SpaceKey, ScheduleSpace> &
spaceStore()
{
    static SetupStore<SpaceKey, ScheduleSpace> store(kSetupStoreCapacity);
    return store;
}

} // namespace

ScheduleSpace
buildSpace(const Operation &anchor, const Target &target,
           const SpaceOptions &options)
{
    FT_ASSERT(!anchor->isPlaceholder(), "cannot build space for placeholder");
    const auto *op = static_cast<const ComputeOp *>(anchor.get());

    int sl = kGpuSpatialLevels, rl = kGpuReduceLevels;
    if (target.kind == DeviceKind::Cpu) {
        sl = kCpuSpatialLevels;
        rl = kCpuReduceLevels;
    } else if (target.kind == DeviceKind::Fpga) {
        sl = kFpgaSpatialLevels;
        rl = kFpgaReduceLevels;
    }

    ScheduleSpace space(defaultConfig(anchor, target));
    const bool pow2 = options.templateRestricted || options.pow2Splits;
    const std::vector<int64_t> &overrides = options.spatialExtentOverride;
    for (size_t i = 0; i < op->axis().size(); ++i) {
        const int64_t extent = i < overrides.size() && overrides[i] > 0
                                   ? overrides[i]
                                   : op->axis()[i]->extent;
        space.add(std::make_unique<SplitSubSpace>(
            KnobRole::SpatialSplit, static_cast<int>(i), extent, sl, pow2));
    }
    for (size_t i = 0; i < op->reduceAxis().size(); ++i) {
        space.add(std::make_unique<SplitSubSpace>(
            KnobRole::ReduceSplit, static_cast<int>(i),
            op->reduceAxis()[i]->extent, rl, pow2));
    }

    if (!options.templateRestricted) {
        std::vector<int64_t> reorders;
        for (int r = 0; r < kNumReorderChoices; ++r)
            reorders.push_back(r);
        space.add(std::make_unique<ChoiceSubSpace>(KnobRole::Reorder,
                                                   "reorder", reorders));
        space.add(std::make_unique<ChoiceSubSpace>(
            KnobRole::Unroll, "unroll", std::vector<int64_t>{0, 1, 2, 3}));
        if (options.exploreCacheAt && target.kind == DeviceKind::Gpu &&
            !op->reduceAxis().empty()) {
            space.add(std::make_unique<ChoiceSubSpace>(
                KnobRole::CacheAt, "cache_at",
                std::vector<int64_t>{0, 1}));
        }
    }

    if (target.kind == DeviceKind::Cpu) {
        std::vector<int64_t> fuse;
        for (int64_t f = 1; f <= static_cast<int64_t>(op->axis().size());
             ++f) {
            fuse.push_back(f);
        }
        space.add(std::make_unique<ChoiceSubSpace>(KnobRole::Fuse, "fuse",
                                                   fuse));
        space.add(std::make_unique<ChoiceSubSpace>(
            KnobRole::Vectorize, "vectorize",
            std::vector<int64_t>{1, 2, 4, 8, 16}));
    } else if (target.kind == DeviceKind::Fpga) {
        space.add(std::make_unique<ChoiceSubSpace>(
            KnobRole::FpgaBufferRows, "buffer_rows",
            std::vector<int64_t>{1, 2, 3, 4, 6, 8}));
        space.add(std::make_unique<ChoiceSubSpace>(
            KnobRole::FpgaPartition, "partition",
            std::vector<int64_t>{1, 2, 4, 8}));
    }
    return space;
}

std::shared_ptr<const ScheduleSpace>
buildSpaceObserved(const Operation &anchor, const Target &target,
                   const SpaceOptions &options, const ObsContext &obs)
{
    FT_ASSERT(!anchor->isPlaceholder(), "cannot build space for placeholder");
    if (obs.trace)
        obs.trace->begin("space_build", 0.0);
    const StageTimer timer(obs, "space.build.ns");
    WallMark mark = timer.start(obs.trace);
    const auto *op = static_cast<const ComputeOp *>(anchor.get());
    SpaceKey key{target.kind, {}, {}, options};
    for (const auto &iv : op->axis())
        key.spatial.push_back(iv->extent);
    for (const auto &iv : op->reduceAxis())
        key.reduce.push_back(iv->extent);
    auto space = spaceStore().get(
        key, [&] { return buildSpace(anchor, target, options); });
    const int64_t ns = timer.lap(mark);
    if (obs.trace) {
        obs.trace->end("space_build", 0.0,
                       {treal("size", space->size()),
                        tint("dims", space->numSubSpaces()),
                        tint("directions", space->numDirections())},
                       mark.nsField(ns));
    }
    return space;
}

size_t
storedSpaces()
{
    return spaceStore().size();
}

} // namespace ft
