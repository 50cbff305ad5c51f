/**
 * @file
 * Tests for schedule serialization, the tuning cache, point recovery
 * (ScheduleSpace::pointOf), and cache/seed integration with the tuner.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "dnn/models.h"
#include "explore/tuner.h"
#include "graph/dag.h"
#include "graph/lower.h"
#include "ops/ops.h"
#include "schedule/serialize.h"
#include "sim/library_model.h"
#include "sim/perf_model.h"
#include "support/hexfloat.h"
#include "support/journal.h"
#include "support/rng.h"

namespace ft {
namespace {

OpConfig
sampleConfig()
{
    OpConfig config;
    config.spatialSplits = {{4, 2, 8, 1}, {16, 1, 4, 2}};
    config.reduceSplits = {{32, 2, 4}};
    config.reorderChoice = 2;
    config.fuseCount = 2;
    config.unrollDepth = 3;
    config.vectorizeLen = 16;
    config.fpgaBufferRows = 4;
    config.fpgaPartition = 8;
    return config;
}

TEST(Serialize, ConfigRoundTrips)
{
    OpConfig config = sampleConfig();
    auto parsed = parseConfig(serializeConfig(config));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->spatialSplits, config.spatialSplits);
    EXPECT_EQ(parsed->reduceSplits, config.reduceSplits);
    EXPECT_EQ(parsed->reorderChoice, config.reorderChoice);
    EXPECT_EQ(parsed->fuseCount, config.fuseCount);
    EXPECT_EQ(parsed->unrollDepth, config.unrollDepth);
    EXPECT_EQ(parsed->vectorizeLen, config.vectorizeLen);
    EXPECT_EQ(parsed->fpgaBufferRows, config.fpgaBufferRows);
    EXPECT_EQ(parsed->fpgaPartition, config.fpgaPartition);
}

TEST(Serialize, EmptySplitsRoundTrip)
{
    OpConfig config; // no splits at all
    auto parsed = parseConfig(serializeConfig(config));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->spatialSplits.empty());
    EXPECT_TRUE(parsed->reduceSplits.empty());
}

TEST(Serialize, RejectsGarbage)
{
    EXPECT_FALSE(parseConfig("not a config").has_value());
    EXPECT_FALSE(parseConfig("v2|s=1|r=1").has_value());
    EXPECT_FALSE(parseConfig("v1|s=a,b|r=").has_value());
}

TEST(Serialize, TuningKeyDependsOnShapeAndDevice)
{
    Tensor a1 = placeholder("A", {64, 32});
    Tensor b1 = placeholder("B", {32, 16});
    Tensor a2 = placeholder("A", {64, 64});
    Tensor b2 = placeholder("B", {64, 16});
    uint64_t k1 = workloadKey(ops::gemm(a1, b1).op(), "V100");
    uint64_t k2 = workloadKey(ops::gemm(a2, b2).op(), "V100");
    uint64_t k3 = workloadKey(ops::gemm(a1, b1).op(), "XeonE5");
    EXPECT_NE(k1, k2);
    // The device separates keys.
    EXPECT_NE(k1, k3);
    // Two separately built, structurally equal ops share a key, whatever
    // their tensors are named.
    Tensor a4 = placeholder("X", {64, 32});
    Tensor b4 = placeholder("Y", {32, 16});
    EXPECT_EQ(k1, workloadKey(ops::gemm(a4, b4).op(), "V100"));

    // YOLO-v1's conv22 (14x14 input, stride 2) and conv23 (7x7, stride
    // 1) share output and reduce extents, and so the coarser string
    // tuningKeyFor, but not the structural key.
    const graph::ComputeDag dag = graph::dagFromNetwork(yoloV1(1));
    std::map<std::string, uint64_t> keys;
    std::map<std::string, std::string> names;
    for (size_t id = 0; id < dag.nodes.size(); ++id) {
        const std::string &name = dag.nodes[id].name;
        if (name != "conv22" && name != "conv23")
            continue;
        const Operation anchor =
            graph::lowerAnchor(dag, static_cast<int>(id)).output.op();
        keys[name] = workloadKey(anchor, "V100");
        names[name] = tuningKeyFor(anchor, "V100");
    }
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_NE(keys["conv22"], keys["conv23"]);
    EXPECT_EQ(names["conv22"].substr(names["conv22"].find(':')),
              names["conv23"].substr(names["conv23"].find(':')));
}

TEST(TuningCache, KeepsBestPerKey)
{
    TuningCache cache;
    cache.put({7, sampleConfig(), 10.0});
    OpConfig better = sampleConfig();
    better.unrollDepth = 1;
    cache.put({7, better, 20.0});
    OpConfig worse = sampleConfig();
    worse.unrollDepth = 0;
    cache.put({7, worse, 5.0});

    auto hit = cache.lookup(7);
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(hit->gflops, 20.0);
    EXPECT_EQ(hit->config.unrollDepth, 1);
    EXPECT_FALSE(cache.lookup(8).has_value());
}

TEST(TuningCache, FileRoundTrip)
{
    const std::string path = "/tmp/flextensor_cache_test.txt";
    const uint64_t alpha = 0xa1fa000000000001ull, beta = 0xbe7a;
    TuningCache cache;
    cache.put({alpha, sampleConfig(), 12.5});
    OpConfig other = sampleConfig();
    other.reorderChoice = 0;
    cache.put({beta, other, 7.25});
    ASSERT_TRUE(cache.save(path));

    TuningCache loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_TRUE(loaded.lookup(beta).has_value());
    auto hit = loaded.lookup(alpha);
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(hit->gflops, 12.5);
    EXPECT_EQ(hit->config.spatialSplits, sampleConfig().spatialSplits);
    std::remove(path.c_str());
}

TEST(TuningCache, LoadMissingFileFails)
{
    TuningCache cache;
    EXPECT_FALSE(cache.load("/tmp/definitely_not_here_12345.txt"));
    EXPECT_EQ(cache.size(), 0u);
}

TEST(TuningCache, SkipsMalformedLines)
{
    // One record per journal frame; intact frames whose record does not
    // parse are skipped, the rest load.
    // A key is exactly 16 hex digits: a loose strtoull would read the
    // old string key "c2d:..." as 0xc2d.
    const std::string path = "/tmp/flextensor_cache_bad.txt";
    const std::string config = "v1|s=2,2|r=4|reorder=1|fuse=1|unroll=0|"
                               "vec=8|rows=1|part=1";
    JournalWriter writer("tcache2");
    writer.append("garbage line without tabs");
    writer.append("000000000000000a\tnot_a_number\t" + config);
    writer.append("c2d:8,8,r:3,@V100\t3.5\t" + config);
    writer.append("c2d\t3.5\t" + config);
    writer.append("00000000000000c2d\t3.5\t" + config);
    writer.append("+00000000000000c\t3.5\t" + config);
    writer.append("00000000000000c2\t3.5x\t" + config);
    writer.append("00000000000000c2\t0x1.cp+1\t" + config);
    ASSERT_TRUE(writer.commit(path));
    TuningCache cache;
    ASSERT_TRUE(cache.load(path));
    EXPECT_EQ(cache.size(), 1u);
    ASSERT_TRUE(cache.lookup(0xc2).has_value());
    EXPECT_EQ(cache.lookup(0xc2)->gflops, 3.5);
    std::remove(path.c_str());
}

TEST(TuningCache, RefusesAndDropsInvalidRecords)
{
    // The score of a rejected trial is no schedule: put() refuses it,
    // and load() drops one a file still holds.
    TuningCache cache;
    cache.put({5, sampleConfig(), kInvalidGflops});
    cache.put({6, sampleConfig(), 0.0});
    EXPECT_EQ(cache.size(), 0u);

    const std::string path = "/tmp/flextensor_cache_invalid.txt";
    const std::string config = "v1|s=2,2|r=4|reorder=1|fuse=1|unroll=0|"
                               "vec=8|rows=1|part=1";
    JournalWriter writer("tcache2");
    writer.append("0000000000000005\t" + hexDouble(kInvalidGflops) + "\t" +
                  config);
    writer.append("0000000000000007\t0x1.cp+1\t" + config);
    ASSERT_TRUE(writer.commit(path));
    ASSERT_TRUE(cache.load(path));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_FALSE(cache.lookup(5).has_value());
    EXPECT_TRUE(cache.lookup(7).has_value());
    std::remove(path.c_str());
}

TEST(TuningCache, StringKeyedCacheLoadsEmptyWithAWarning)
{
    // A cache written with string keys (journal kind "tcache") is not
    // read: it loads empty, loudly, and the next save replaces it.
    const std::string path = "/tmp/flextensor_cache_string_keys.txt";
    JournalWriter writer("tcache");
    writer.append("gemm:128,96,r:64,@V100\t3.5\tv1|s=2,2|r=4|reorder=1|"
                  "fuse=1|unroll=0|vec=8|rows=1|part=1");
    ASSERT_TRUE(writer.commit(path));
    TuningCache cache;
    ::testing::internal::CaptureStderr();
    EXPECT_TRUE(cache.load(path));
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("wrong journal kind"), std::string::npos) << err;
    EXPECT_EQ(cache.size(), 0u);
    std::remove(path.c_str());
}

Tensor
cachedGemm()
{
    Tensor a = placeholder("A", {128, 64});
    Tensor b = placeholder("B", {64, 96});
    return ops::gemm(a, b);
}

TEST(SpacePointOf, RecoversDecodedConfig)
{
    Target target = Target::forGpu(v100());
    ScheduleSpace space = buildSpace(cachedGemm().op(), target);
    Rng rng(3);
    for (int trial = 0; trial < 50; ++trial) {
        Point p = space.randomPoint(rng);
        OpConfig config = space.decode(p);
        auto recovered = space.pointOf(config);
        ASSERT_TRUE(recovered.has_value());
        EXPECT_EQ(recovered->idx, p.idx);
    }
}

TEST(SpacePointOf, RejectsForeignConfig)
{
    Target target = Target::forGpu(v100());
    ScheduleSpace space = buildSpace(cachedGemm().op(), target);
    OpConfig bad = sampleConfig(); // wrong split shapes for this op
    EXPECT_FALSE(space.pointOf(bad).has_value());
}

TEST(TunerCache, SecondCallIsServedFromCache)
{
    TuningCache cache;
    TuneOptions options;
    options.explore.trials = 25;
    options.cache = &cache;

    Target target = Target::forGpu(v100());
    TuneReport first = tune(cachedGemm(), target, options);
    EXPECT_FALSE(first.fromCache);
    EXPECT_EQ(cache.size(), 1u);

    TuneReport second = tune(cachedGemm(), target, options);
    EXPECT_TRUE(second.fromCache);
    EXPECT_DOUBLE_EQ(second.gflops, first.gflops);
    EXPECT_EQ(serializeConfig(second.config),
              serializeConfig(first.config));
}

TEST(TunerCache, DifferentDeviceMisses)
{
    TuningCache cache;
    TuneOptions options;
    options.explore.trials = 20;
    options.cache = &cache;
    tune(cachedGemm(), Target::forGpu(v100()), options);
    TuneReport cpu = tune(cachedGemm(), Target::forCpu(xeonE5()), options);
    EXPECT_FALSE(cpu.fromCache);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(Explore, SeedPointsEnterHistory)
{
    Tensor out = cachedGemm();
    Target target = Target::forGpu(v100());
    ScheduleSpace space = buildSpace(out.op(), target);
    // Seed with the expert config's point.
    OpConfig expert = expertConfig(out.op(), target);
    auto seed_point = space.pointOf(expert);
    ASSERT_TRUE(seed_point.has_value());

    Evaluator eval(out.op(), space, target);
    ExploreOptions options;
    options.trials = 10;
    options.seedPoints = {*seed_point};
    ExploreResult result = explore(Method::QMethod, eval, options);
    // The seed was evaluated, so the best is at least its value.
    double expert_gflops = eval.evaluate(*seed_point);
    EXPECT_GE(result.bestGflops, expert_gflops);
    EXPECT_TRUE(eval.known(*seed_point));
}

} // namespace
} // namespace ft
