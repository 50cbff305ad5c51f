/**
 * @file
 * Tests for the shape-family subsystem: bucket partitions, per-instance
 * split adaptation, dispatch-table totality/serialization/range checks,
 * joint tuning over a family, and serve-time dispatch in the service.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <set>
#include <stdexcept>

#include "family/tune_family.h"
#include "ops/ops.h"
#include "serve/service.h"
#include "sim/hw_spec.h"
#include "sim/library_model.h"
#include "support/hexfloat.h"
#include "support/journal.h"
#include "support/math_util.h"

namespace ft {
namespace {

ShapeVar
batchVar(int64_t lo, int64_t hi, Bucketing bucketing = Bucketing::Pow2,
         int64_t width = 8)
{
    ShapeVar var;
    var.name = "batch";
    var.lo = lo;
    var.hi = hi;
    var.bucketing = bucketing;
    var.bucketWidth = width;
    return var;
}

ShapeFamily
smallGemmFamily(int64_t lo = 1, int64_t hi = 16)
{
    return gemmOverM(/*n=*/64, /*k=*/64, batchVar(lo, hi));
}

FamilyTuneOptions
quickOptions(uint64_t seed = 0xfa417)
{
    FamilyTuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 8;
    options.explore.warmupPoints = 4;
    options.explore.seed = seed;
    options.samplesPerBucket = 2;
    return options;
}

TEST(ShapeVarTest, NextPow2)
{
    EXPECT_EQ(nextPow2(1), 1);
    EXPECT_EQ(nextPow2(2), 2);
    EXPECT_EQ(nextPow2(3), 4);
    EXPECT_EQ(nextPow2(63), 64);
    EXPECT_EQ(nextPow2(64), 64);
    EXPECT_EQ(nextPow2(65), 128);
}

TEST(ShapeVarTest, Pow2BucketsPartitionTheRange)
{
    ShapeVar var = batchVar(1, 64);
    std::vector<ShapeBucket> buckets = bucketsOf(var);
    ASSERT_FALSE(buckets.empty());
    // Contiguous ascending partition covering exactly [lo, hi].
    EXPECT_EQ(buckets.front().lo, var.lo);
    EXPECT_EQ(buckets.back().hi, var.hi);
    for (size_t i = 1; i < buckets.size(); ++i)
        EXPECT_EQ(buckets[i].lo, buckets[i - 1].hi + 1);
    // Every in-range value falls into exactly one bucket, and
    // bucketIndexOf agrees with the partition.
    for (int64_t v = var.lo; v <= var.hi; ++v) {
        int hits = 0;
        for (size_t i = 0; i < buckets.size(); ++i) {
            if (buckets[i].contains(v)) {
                ++hits;
                EXPECT_EQ(bucketIndexOf(var, v), static_cast<int>(i));
            }
        }
        EXPECT_EQ(hits, 1) << "value " << v;
    }
    EXPECT_EQ(bucketIndexOf(var, 0), -1);
    EXPECT_EQ(bucketIndexOf(var, 65), -1);
}

TEST(ShapeVarTest, FixedWidthBucketsPartitionTheRange)
{
    ShapeVar var = batchVar(3, 41, Bucketing::FixedWidth, 7);
    std::vector<ShapeBucket> buckets = bucketsOf(var);
    EXPECT_EQ(buckets.front().lo, var.lo);
    EXPECT_EQ(buckets.back().hi, var.hi);
    for (size_t i = 1; i < buckets.size(); ++i) {
        EXPECT_EQ(buckets[i].lo, buckets[i - 1].hi + 1);
        EXPECT_LE(buckets[i].hi - buckets[i].lo + 1, 7);
    }
    for (int64_t v = var.lo; v <= var.hi; ++v)
        EXPECT_NE(bucketIndexOf(var, v), -1) << "value " << v;
}

TEST(ShapeVarTest, SampleBucketIsDeterministicAndInRange)
{
    ShapeBucket bucket{9, 16};
    std::vector<int64_t> samples = sampleBucket(bucket, 3);
    EXPECT_EQ(samples, sampleBucket(bucket, 3));
    EXPECT_LE(samples.size(), 3u);
    EXPECT_FALSE(samples.empty());
    // The padded worst case (upper bound) is always scored.
    EXPECT_EQ(samples.back(), bucket.hi);
    std::set<int64_t> unique(samples.begin(), samples.end());
    EXPECT_EQ(unique.size(), samples.size());
    for (int64_t v : samples)
        EXPECT_TRUE(bucket.contains(v));
    // Degenerate bucket: every value, no duplicates.
    EXPECT_EQ(sampleBucket({4, 4}, 3), (std::vector<int64_t>{4}));
    EXPECT_EQ(sampleBucket({5, 6}, 4), (std::vector<int64_t>{5, 6}));
}

TEST(FamilyTest, AdaptSplitCoversExtentKeepingInnerTiles)
{
    OpConfig config;
    config.spatialSplits = {{8, 1, 2, 4}, {2, 2}};
    adaptSplitToExtent(config, 0, 37);
    // Inner factors survive; the outer factor becomes ceil(37 / 8) = 5.
    EXPECT_EQ(config.spatialSplits[0],
              (std::vector<int64_t>{5, 1, 2, 4}));
    EXPECT_GE(product(config.spatialSplits[0]), 37);
    // Overshoot stays under one inner tile.
    EXPECT_LT(product(config.spatialSplits[0]) - 37, 8);
    // The other axis is untouched.
    EXPECT_EQ(config.spatialSplits[1], (std::vector<int64_t>{2, 2}));
}

TEST(FamilyTest, InstanceAnchorsTrackTheShapeVar)
{
    ShapeFamily family = smallGemmFamily(1, 16);
    Operation anchor = family.instanceAnchor(7);
    const auto *c = static_cast<const ComputeOp *>(anchor.get());
    EXPECT_EQ(c->axis()[0]->extent, 7);
    EXPECT_EQ(c->axis()[1]->extent, 64);
}

DispatchTable
tableOverRange(int64_t lo, int64_t hi)
{
    ShapeVar var = batchVar(lo, hi);
    DispatchTable table("gemm_test", "V100", var);
    for (const ShapeBucket &bucket : bucketsOf(var)) {
        DispatchEntry entry;
        entry.lo = bucket.lo;
        entry.hi = bucket.hi;
        entry.config.spatialSplits = {{bucket.hi, 1, 1, 1}, {8, 2, 2, 2}};
        entry.config.reduceSplits = {{16, 2, 2}};
        entry.gflops = 100.0 + static_cast<double>(bucket.hi) / 3.0;
        entry.trials = 8;
        table.addEntry(entry);
    }
    return table;
}

TEST(DispatchTableTest, LookupIsTotalOverDeclaredRange)
{
    DispatchTable table = tableOverRange(1, 64);
    ASSERT_TRUE(table.total());
    // Every in-range shape resolves to exactly one entry, and it is the
    // entry whose bucket contains the shape.
    for (int64_t v = 1; v <= 64; ++v) {
        const DispatchEntry &entry = table.lookup(v);
        EXPECT_TRUE(entry.contains(v)) << "shape " << v;
        EXPECT_EQ(bucketIndexOf(table.var(), v),
                  static_cast<int>(&entry - table.entries().data()));
    }
}

TEST(DispatchTableTest, OutOfRangeLookupsFailLoudly)
{
    DispatchTable table = tableOverRange(1, 64);
    EXPECT_THROW(table.lookup(0), std::out_of_range);
    EXPECT_THROW(table.lookup(65), std::out_of_range);
    EXPECT_THROW(table.lookup(-3), std::out_of_range);
    // A partial table refuses shapes past its entries even in range.
    ShapeVar var = batchVar(1, 64);
    DispatchTable partial("gemm_test", "V100", var);
    DispatchEntry first;
    first.lo = 1;
    first.hi = 1;
    first.config.spatialSplits = {{1, 1, 1, 1}};
    first.gflops = 1.0;
    ASSERT_TRUE(partial.addEntry(first));
    EXPECT_FALSE(partial.total());
    EXPECT_NO_THROW(partial.lookup(1));
    EXPECT_THROW(partial.lookup(2), std::out_of_range);
}

TEST(DispatchTableTest, SerializeRoundTripsByteIdentically)
{
    DispatchTable table = tableOverRange(1, 64);
    const std::string text = table.serialize();
    std::optional<DispatchTable> parsed = DispatchTable::deserialize(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->serialize(), text);
    EXPECT_EQ(parsed->familyName(), table.familyName());
    EXPECT_EQ(parsed->device(), table.device());
    EXPECT_EQ(parsed->entries().size(), table.entries().size());
    for (size_t i = 0; i < table.entries().size(); ++i) {
        EXPECT_EQ(parsed->entries()[i].gflops, table.entries()[i].gflops);
        EXPECT_EQ(serializeConfig(parsed->entries()[i].config),
                  serializeConfig(table.entries()[i].config));
    }
    EXPECT_FALSE(DispatchTable::deserialize("garbage").has_value());
    EXPECT_FALSE(DispatchTable::deserialize("dispatch v1\nentry 1 2 0x1p0 1 x")
                     .has_value());
}

/** tableOverRange's text with the entry of `bucket` scored kInvalidGflops. */
std::string
textWithInvalidEntry(const DispatchTable &table, size_t bucket)
{
    std::string text = table.serialize();
    const std::string from = hexDouble(table.entries()[bucket].gflops);
    const size_t at = text.find(" " + from + " ");
    EXPECT_NE(at, std::string::npos);
    return text.replace(at + 1, from.size(), hexDouble(kInvalidGflops));
}

TEST(DispatchTableTest, InvalidEntriesAreRefusedAndDroppedOnLoad)
{
    const DispatchTable full = tableOverRange(1, 8); // [1] [2] [3,4] [5,8]
    DispatchTable table("gemm_test", "V100", full.var());
    for (size_t i = 0; i < full.entries().size(); ++i) {
        DispatchEntry entry = full.entries()[i];
        if (i == 1)
            entry.gflops = kInvalidGflops;
        if (i == 2)
            entry.gflops = std::numeric_limits<double>::quiet_NaN();
        EXPECT_EQ(table.addEntry(entry), i != 1 && i != 2) << i;
    }
    // The refused buckets leave a gap no lookup answers from.
    EXPECT_FALSE(table.total());
    ASSERT_EQ(table.entries().size(), 2u);
    EXPECT_NE(table.find(1), nullptr);
    for (int64_t v : {2, 3, 4}) {
        EXPECT_EQ(table.find(v), nullptr) << v;
        EXPECT_THROW(table.lookup(v), std::out_of_range) << v;
    }
    EXPECT_EQ(table.find(5)->lo, 5);
    EXPECT_EQ(table.find(0), nullptr);

    // The loader drops an invalid entry the same way.
    auto parsed = DispatchTable::deserialize(textWithInvalidEntry(full, 1));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->entries().size(), full.entries().size() - 1);
    EXPECT_FALSE(parsed->total());
    EXPECT_EQ(parsed->find(2), nullptr);
    for (const DispatchEntry &e : parsed->entries())
        EXPECT_TRUE(e.valid()) << e.lo;
}

/**
 * A family search that finds no schedule must not publish one: 1 trial
 * and 1 warmup point of random search over gemm m in [1, 64] leave some
 * buckets with nothing that verifies (17 of the 84 below). Each such
 * bucket falls back to the expert config at its upper shape, and every
 * published entry serves every shape of its bucket.
 */
TEST(FamilyTuneTest, FailedBucketsNeverReachTheDispatchTable)
{
    const ShapeFamily family = gemmOverM(1024, 1024, batchVar(1, 64));
    int fallbacks = 0;
    for (const Target &target :
         {Target::forGpu(v100()), Target::forCpu(xeonE5())}) {
        for (uint64_t seed = 1; seed <= 6; ++seed) {
            SCOPED_TRACE(target.deviceName() + " seed " +
                         std::to_string(seed));
            FamilyTuneOptions options;
            options.method = Method::Random;
            options.explore.trials = 1;
            options.explore.warmupPoints = 1;
            options.explore.seed = seed;
            const FamilyTuneReport report =
                tuneFamily(family, target, options);
            for (const FamilyBucketReport &b : report.buckets) {
                EXPECT_TRUE(b.valid) << b.bucket.lo;
                if (!b.fallback)
                    continue;
                ++fallbacks;
                EXPECT_EQ(serializeConfig(b.config),
                          serializeConfig(expertConfig(
                              family.instanceAnchor(b.bucket.hi), target)));
                EXPECT_GT(b.familyGflops, kInvalidGflops);
                EXPECT_GT(b.repGflops, 0.0);
            }
            EXPECT_TRUE(report.table.total());
            for (const DispatchEntry &e : report.table.entries()) {
                EXPECT_TRUE(e.valid()) << e.lo;
                for (int64_t v = e.lo; v <= e.hi; ++v) {
                    EXPECT_GT(instanceGflopsFor(family, e.config, v, target),
                              0.0)
                        << "shape " << v;
                }
            }
        }
    }
    EXPECT_EQ(fallbacks, 17);
}

TEST(FamilyTuneTest, TuneFamilyProducesATotalTable)
{
    ShapeFamily family = smallGemmFamily(1, 16);
    Target target = Target::forGpu(v100());
    FamilyTuneReport report = tuneFamily(family, target, quickOptions());
    EXPECT_TRUE(report.table.total());
    EXPECT_EQ(report.buckets.size(), bucketsOf(family.var).size());
    EXPECT_GT(report.totalTrials, 0);
    EXPECT_GT(report.spaceSize, 0.0);
    for (const FamilyBucketReport &bucket : report.buckets) {
        EXPECT_GT(bucket.familyGflops, 0.0);
        EXPECT_GT(bucket.repGflops, 0.0);
        EXPECT_GT(bucket.trials, 0);
    }
    // The winning schedule of every bucket adapts to every shape it
    // serves with positive modeled performance (legal on all shapes).
    for (int64_t v = family.var.lo; v <= family.var.hi; ++v) {
        const DispatchEntry &entry = report.table.lookup(v);
        EXPECT_GT(instanceGflopsFor(family, entry.config, v, target), 0.0)
            << "shape " << v;
    }
}

TEST(FamilyTuneTest, FixedSeedRunsAreBitIdentical)
{
    ShapeFamily family = smallGemmFamily(1, 16);
    Target target = Target::forGpu(v100());
    FamilyTuneReport a = tuneFamily(family, target, quickOptions(42));
    FamilyTuneReport b = tuneFamily(family, target, quickOptions(42));
    EXPECT_EQ(a.table.serialize(), b.table.serialize());
    EXPECT_EQ(a.totalTrials, b.totalTrials);
    FamilyTuneReport c = tuneFamily(family, target, quickOptions(43));
    EXPECT_EQ(c.table.serialize().empty(), false);
}

TEST(FamilyTuneTest, SharedCostModelAccruesTrialsAcrossBuckets)
{
    // One model rides through every bucket's ExploreOptions copy:
    // after a family run it must hold trials from all buckets (more
    // than any single bucket contributed) and be trained.
    ShapeFamily family = smallGemmFamily(1, 16);
    Target target = Target::forGpu(v100());

    CostModelOptions model_options;
    model_options.syncRefit = true;
    model_options.refitEvery = 16;
    CostModel model(model_options);

    FamilyTuneOptions options = quickOptions();
    options.explore.costModel = &model;
    FamilyTuneReport report = tuneFamily(family, target, options);
    ASSERT_GT(report.buckets.size(), 1u);

    int max_bucket_trials = 0;
    for (const FamilyBucketReport &bucket : report.buckets)
        max_bucket_trials = std::max(max_bucket_trials, bucket.trials);
    EXPECT_GT(model.numTrials(),
              static_cast<size_t>(max_bucket_trials));
    EXPECT_TRUE(model.ready());
    EXPECT_GE(model.refits(), 1u);
}

TEST(FamilyServiceTest, ServeShapeHitsDispatchTableAfterTuning)
{
    ServiceOptions service_options;
    service_options.evalThreads = 2;
    service_options.requestThreads = 1;
    TuningService service(service_options);
    ShapeFamily family = smallGemmFamily(1, 16);
    Target target = Target::forGpu(v100());

    // First request: no table yet, so the family is tuned.
    FamilyServeResult first =
        service.serveShape(family, 5, target, quickOptions());
    EXPECT_FALSE(first.fromDispatch);
    EXPECT_TRUE(first.bucket.contains(5));
    // The adapted config covers the concrete shape.
    EXPECT_GE(product(first.config.spatialSplits[0]), 5);

    // Second request: served straight from the published table.
    FamilyServeResult second =
        service.serveShape(family, 6, target, quickOptions());
    EXPECT_TRUE(second.fromDispatch);
    EXPECT_TRUE(second.bucket.contains(6));

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.familyRequests, 2u);
    EXPECT_EQ(stats.dispatchHits, 1u);
    EXPECT_EQ(stats.dispatchTables, 1u);

    std::optional<DispatchTable> table =
        service.dispatchTableFor(family.name, target.deviceName());
    ASSERT_TRUE(table.has_value());
    EXPECT_TRUE(table->total());
    EXPECT_FALSE(
        service.dispatchTableFor("no_such_family", target.deviceName())
            .has_value());
}

/**
 * A persisted table whose entry is invalid loads without it: the
 * service answers the other buckets from the table and tunes the
 * family for a shape of the dropped one instead of serving it.
 */
TEST(FamilyServiceTest, DispatchNeverAnswersFromADroppedEntry)
{
    const ShapeFamily family = smallGemmFamily(1, 8);
    const Target target = Target::forGpu(v100());
    const std::string dir =
        ::testing::TempDir() + "ft_family_dropped_entry";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const DispatchTable source = tableOverRange(1, 8);
    DispatchTable table(family.name, target.deviceName(), family.var);
    for (const DispatchEntry &e : source.entries())
        table.addEntry(e);
    JournalWriter writer("dispatch");
    writer.append(textWithInvalidEntry(table, 1)); // bucket [2, 2]
    ASSERT_TRUE(writer.commit(dir + "/stale.dispatch"));

    ServiceOptions service_options;
    service_options.dispatchDir = dir;
    TuningService service(service_options);
    EXPECT_TRUE(service.serveShape(family, 1, target, quickOptions())
                    .fromDispatch);
    const FamilyServeResult fresh =
        service.serveShape(family, 2, target, quickOptions());
    EXPECT_FALSE(fresh.fromDispatch);
    EXPECT_GT(fresh.gflops, kInvalidGflops);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.dispatchHits, 1u);
    EXPECT_EQ(stats.tuningRuns, 1u);
    std::filesystem::remove_all(dir);
}

TEST(FamilyServiceTest, TuneFamilyPublishesAndCountsRequests)
{
    TuningService service;
    ShapeFamily family = smallGemmFamily(1, 8);
    Target target = Target::forGpu(v100());
    FamilyTuneReport report =
        service.tuneFamily(family, target, quickOptions());
    EXPECT_TRUE(report.table.total());
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.familyRequests, 1u);
    EXPECT_EQ(stats.dispatchHits, 0u);
    EXPECT_EQ(stats.dispatchTables, 1u);
    EXPECT_EQ(stats.evaluations,
              static_cast<uint64_t>(report.totalTrials));
}

} // namespace
} // namespace ft
