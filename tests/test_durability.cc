/**
 * @file
 * Crash-safety tests for the durable stores: the CRC32-framed record
 * journal itself, plus the three adopters (explore checkpoints, the
 * persistent TuningCache, and DispatchTable files) against a corruption
 * corpus — torn tails at seeded crash offsets, bit flips, and blunt
 * truncation. The marquee test kills a tuning run, tears its checkpoint
 * journal mid-frame as a crashing writer would, and proves the resumed
 * run is still bit-identical to one that was never interrupted.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "explore/checkpoint.h"
#include "explore/tuner.h"
#include "family/dispatch.h"
#include "ml/costmodel.h"
#include "ops/ops.h"
#include "schedule/serialize.h"
#include "space/builder.h"
#include "support/fault_injector.h"
#include "support/journal.h"

namespace ft {
namespace {

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------
// The journal layer itself.

TEST(Journal, FramesRoundTripThroughWriterAndParser)
{
    JournalWriter writer("test");
    writer.append("alpha");
    writer.append(""); // empty payloads are legal frames
    writer.append("gamma\twith\ttabs\nand a newline");

    JournalContents parsed = parseJournal(writer.bytes());
    EXPECT_TRUE(parsed.valid);
    EXPECT_FALSE(parsed.torn);
    EXPECT_EQ(parsed.kind, "test");
    ASSERT_EQ(parsed.records.size(), 3u);
    EXPECT_EQ(parsed.records[0], "alpha");
    EXPECT_EQ(parsed.records[1], "");
    EXPECT_EQ(parsed.records[2], "gamma\twith\ttabs\nand a newline");
}

TEST(Journal, TornTailKeepsEveryIntactFrameAndRepairs)
{
    const std::string path = ::testing::TempDir() + "ft_journal_torn.j";
    JournalWriter writer("test");
    writer.append("one");
    writer.append("two");
    const size_t intact_bytes = writer.bytes().size();
    writer.append("three");

    // A crash mid-append leaves the last frame torn on disk.
    ASSERT_TRUE(FaultInjector::writeTorn(path, writer.bytes(),
                                         intact_bytes + 7));
    JournalContents torn = readJournal(path);
    EXPECT_TRUE(torn.valid);
    EXPECT_TRUE(torn.torn);
    ASSERT_EQ(torn.records.size(), 2u);
    EXPECT_EQ(torn.records[1], "two");
    EXPECT_EQ(torn.validBytes, intact_bytes);
    EXPECT_NE(torn.diag.find("code=FT-JRNL-"), std::string::npos);
    EXPECT_NE(torn.diag.find("offset="), std::string::npos);

    // truncateToValid repairs the file in place (atomically).
    ASSERT_TRUE(truncateToValid(path, torn));
    JournalContents repaired = readJournal(path);
    EXPECT_FALSE(repaired.torn);
    EXPECT_EQ(repaired.records.size(), 2u);
    EXPECT_EQ(readBytes(path).size(), intact_bytes);
    std::remove(path.c_str());
}

TEST(Journal, BitFlipIsCaughtByTheFrameChecksum)
{
    const std::string path = ::testing::TempDir() + "ft_journal_flip.j";
    JournalWriter writer("test");
    writer.append("aaaaaaaaaa");
    const size_t first_end = writer.bytes().size();
    writer.append("bbbbbbbbbb");
    writeBytes(path, writer.bytes());

    // Flip one payload bit of the second frame: its CRC must reject it
    // while the first frame survives.
    const uint64_t bit = (first_end + 20) * 8 + 2;
    ASSERT_TRUE(FaultInjector::flipBit(path, bit));
    JournalContents parsed = readJournal(path);
    EXPECT_TRUE(parsed.valid);
    EXPECT_TRUE(parsed.torn);
    ASSERT_EQ(parsed.records.size(), 1u);
    EXPECT_EQ(parsed.records[0], "aaaaaaaaaa");
    EXPECT_NE(parsed.diag.find("FT-JRNL-"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Journal, EverySeededCrashOffsetRecoversCommittedFrames)
{
    const std::string path = ::testing::TempDir() + "ft_journal_crash.j";
    JournalWriter committed("test");
    committed.append("committed-record");
    const std::string base = committed.bytes();
    JournalWriter full("test");
    full.append("committed-record");
    full.append("in-flight-record");
    const std::string bytes = full.bytes();

    // Crash at every seeded offset *during the append* of frame two:
    // frame one was durably committed and must never be lost.
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        FaultProfile profile;
        profile.seed = seed;
        FaultInjector injector(profile);
        for (uint64_t schedule = 0; schedule < 8; ++schedule) {
            const size_t tail = bytes.size() - base.size();
            const size_t crash_at =
                base.size() +
                injector.crashOffsetFor(path, tail, schedule) % tail;
            ASSERT_TRUE(FaultInjector::writeTorn(path, bytes, crash_at));
            JournalContents parsed = readJournal(path);
            ASSERT_TRUE(parsed.valid)
                << "seed " << seed << " schedule " << schedule;
            ASSERT_GE(parsed.records.size(), 1u)
                << "seed " << seed << " schedule " << schedule
                << " crash_at " << crash_at;
            EXPECT_EQ(parsed.records[0], "committed-record");
        }
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Checkpoint journal adopters.

Tensor
durabilityGemm(int64_t n = 256)
{
    Tensor a = placeholder("A", {n, n});
    Tensor b = placeholder("B", {n, n});
    return ops::gemm(a, b);
}

class CheckpointDurability : public ::testing::Test
{
  protected:
    CheckpointDurability()
        : out_(durabilityGemm()),
          target_(Target::forGpu(v100())),
          space_(buildSpace(out_.op(), target_))
    {}

    Tensor out_;
    Target target_;
    ScheduleSpace space_;
};

/** Kill the run, tear its checkpoint journal as a crashing writer
 *  would, and the resumed run must STILL be bit-identical: the torn
 *  frame is dropped, the previous snapshot replays the missing trials
 *  deterministically. */
TEST_F(CheckpointDurability, KillThenTornResumeIsBitIdentical)
{
    const std::string path =
        ::testing::TempDir() + "ft_ckpt_torn_resume.ftc";
    std::remove(path.c_str());

    ExploreOptions options;
    options.trials = 12;
    options.warmupPoints = 8;
    options.startingPoints = 2;
    options.seed = 0xd00dfeed;

    Evaluator ref(out_.op(), space_, target_);
    ExploreResult uninterrupted = explore(Method::QMethod, ref, options);

    // "Crashed" run: half the trials, snapshotting every 3 — the
    // journal holds snapshots at trials 3 and 6.
    ExploreOptions partial = options;
    partial.trials = 6;
    partial.checkpointPath = path;
    partial.checkpointEveryTrials = 3;
    Evaluator killed(out_.op(), space_, target_);
    explore(Method::QMethod, killed, partial);

    // Tear the newest frame mid-payload, as a crash during the final
    // snapshot append would.
    const std::string bytes = readBytes(path);
    auto full = loadCheckpoint(path);
    ASSERT_TRUE(full.has_value());
    const int newest_trial = full->trial;
    ASSERT_TRUE(
        FaultInjector::writeTorn(path, bytes, bytes.size() - 40));
    auto recovered = loadCheckpoint(path);
    ASSERT_TRUE(recovered.has_value());
    EXPECT_LT(recovered->trial, newest_trial);

    // Resume over the torn journal: the older snapshot replays the
    // lost trials and the full run stays bit-identical.
    ExploreOptions resume = partial;
    resume.trials = options.trials;
    Evaluator second(out_.op(), space_, target_);
    ExploreResult resumed = explore(Method::QMethod, second, resume);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.bestPoint.key(), uninterrupted.bestPoint.key());
    EXPECT_DOUBLE_EQ(resumed.bestGflops, uninterrupted.bestGflops);
    EXPECT_DOUBLE_EQ(resumed.simSeconds, uninterrupted.simSeconds);
    ASSERT_EQ(second.history().size(), ref.history().size());
    for (size_t i = 0; i < ref.history().size(); ++i) {
        EXPECT_EQ(second.history()[i].point.key(),
                  ref.history()[i].point.key());
        EXPECT_DOUBLE_EQ(second.history()[i].gflops,
                         ref.history()[i].gflops);
    }
    std::remove(path.c_str());
}

TEST_F(CheckpointDurability, SeededCrashScheduleNeverLosesOlderSnapshot)
{
    const std::string path =
        ::testing::TempDir() + "ft_ckpt_crash_sched.ftc";
    std::remove(path.c_str());

    ExploreOptions options;
    options.trials = 8;
    options.seed = 0xcafe;
    options.checkpointPath = path;
    options.checkpointEveryTrials = 4;
    Evaluator eval(out_.op(), space_, target_);
    explore(Method::Random, eval, options);

    const std::string bytes = readBytes(path);
    JournalContents journal = parseJournal(bytes);
    ASSERT_TRUE(journal.valid);
    ASSERT_GE(journal.records.size(), 2u);
    // Byte size of the journal up to (and including) the first frame.
    JournalWriter first_only("ckpt");
    first_only.append(journal.records[0]);
    const size_t base = first_only.bytes().size();
    ASSERT_LT(base, bytes.size());

    // The environment-seeded crash schedule: tear during the append of
    // the newest frame, at injector-chosen offsets.
    uint64_t profile_seed = 0x5eed;
    if (const char *env = std::getenv("FT_CRASH_SEED"))
        profile_seed = std::strtoull(env, nullptr, 0);
    FaultProfile profile;
    profile.seed = profile_seed;
    FaultInjector injector(profile);
    for (uint64_t schedule = 0; schedule < 12; ++schedule) {
        const size_t tail = bytes.size() - base;
        const size_t crash_at =
            base + injector.crashOffsetFor(path, tail, schedule) % tail;
        ASSERT_TRUE(FaultInjector::writeTorn(path, bytes, crash_at));
        auto state = loadCheckpoint(path);
        ASSERT_TRUE(state.has_value())
            << "crash seed " << profile_seed << " schedule " << schedule
            << " offset " << crash_at;
        // Whatever snapshot survives must be internally consistent.
        EXPECT_EQ(state->seed, options.seed);
        EXPECT_TRUE(checkpointCompatible(*state, "random", options.seed,
                                         eval));
    }
    std::remove(path.c_str());
}

/**
 * A snapshot file is outside input. One conv's snapshot offered to
 * another conv whose space has the same signature (a different
 * workloadKey), and a full-space snapshot offered to the same conv's
 * pow2Splits space (points past its sub-spaces), are both rejected
 * with the "different run" warning: the run starts fresh and matches
 * an uncheckpointed one instead of restoring foreign points.
 */
TEST(CheckpointCompatibility, SnapshotOfAnotherWorkloadOrSpaceStartsFresh)
{
    const Target target = Target::forGpu(v100());
    auto conv = [](int64_t channels) {
        Tensor input = placeholder("I", {1, channels, 14, 14});
        Tensor weight = placeholder("W", {channels, channels, 3, 3});
        ops::ConvParams params;
        params.padding = 1;
        return ops::conv2d(input, weight, params);
    };
    const Tensor narrow = conv(32);
    const Tensor wide = conv(64);
    SpaceOptions pow2;
    pow2.pow2Splits = true;
    const ScheduleSpace full = buildSpace(narrow.op(), target);
    const ScheduleSpace other = buildSpace(wide.op(), target);
    const ScheduleSpace pruned = buildSpace(narrow.op(), target, pow2);
    ASSERT_EQ(spaceSignature(other), spaceSignature(full));
    ASSERT_EQ(spaceSignature(pruned), spaceSignature(full));

    const std::string path =
        ::testing::TempDir() + "ft_ckpt_other_workload.ftc";
    std::remove(path.c_str());
    ExploreOptions options;
    options.trials = 12;
    options.seed = 0x5eed;
    options.checkpointPath = path;
    options.checkpointEveryTrials = 2;
    Evaluator writer(narrow.op(), full, target);
    explore(Method::QMethod, writer, options);
    auto snapshot = loadCheckpoint(path);
    ASSERT_TRUE(snapshot.has_value());
    EXPECT_EQ(snapshot->workloadKey, writer.workloadKey());
    const std::string bytes = readBytes(path);

    // The full-space history reaches past the pruned sub-spaces.
    bool outside = false;
    for (const Evaluated &e : snapshot->history) {
        for (int i = 0; i < pruned.numSubSpaces(); ++i)
            outside = outside || e.point.idx[i] >= pruned.sub(i).size();
    }
    ASSERT_TRUE(outside);

    struct Case
    {
        const char *what;
        const Tensor &op;
        const ScheduleSpace &space;
    };
    for (const Case &c : {Case{"another conv", wide, other},
                          Case{"pow2Splits space", narrow, pruned}}) {
        SCOPED_TRACE(c.what);
        ExploreOptions plain = options;
        plain.checkpointPath.clear();
        Evaluator fresh(c.op.op(), c.space, target);
        const ExploreResult want = explore(Method::QMethod, fresh, plain);

        writeBytes(path, bytes);
        Evaluator eval(c.op.op(), c.space, target);
        EXPECT_FALSE(
            checkpointCompatible(*snapshot, "Q-method", options.seed, eval));
        ::testing::internal::CaptureStderr();
        const ExploreResult got = explore(Method::QMethod, eval, options);
        EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                      "belongs to a different run; starting fresh"),
                  std::string::npos);
        EXPECT_FALSE(got.resumed);
        EXPECT_EQ(got.bestPoint.key(), want.bestPoint.key());
        EXPECT_EQ(got.bestGflops, want.bestGflops);
        EXPECT_EQ(got.simSeconds, want.simSeconds);
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// TuningCache corruption corpus.

/** Key of the i-th record: a distinctive 16-hex-digit word. */
uint64_t
recordKey(int i)
{
    return 0x0ddba11000000000ull + static_cast<uint64_t>(i);
}

/** Gflops of the i-th record: not representable in 6 decimal digits. */
double
recordGflops(int i)
{
    return 1333.9123456789 * i;
}

void
fillThreeRecords(TuningCache &cache)
{
    for (int i = 1; i <= 3; ++i) {
        TuningRecord record;
        record.key = recordKey(i);
        record.gflops = recordGflops(i);
        cache.put(record);
    }
}

TEST(TuningCacheDurability, TornTailRecoversEveryIntactRecord)
{
    const std::string path = ::testing::TempDir() + "ft_cache_torn.j";
    TuningCache cache;
    fillThreeRecords(cache);
    ASSERT_TRUE(cache.save(path));
    const std::string bytes = readBytes(path);

    // Tear inside the last frame: the first two records are intact data
    // and must survive (the v2 format would have discarded everything).
    ASSERT_TRUE(FaultInjector::writeTorn(path, bytes, bytes.size() - 6));
    TuningCache loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_TRUE(loaded.lookup(recordKey(1)).has_value());
    EXPECT_TRUE(loaded.lookup(recordKey(2)).has_value());
    EXPECT_FALSE(loaded.lookup(recordKey(3)).has_value());

    // load() repaired the file: a second reader sees a clean journal.
    JournalContents repaired = readJournal(path);
    EXPECT_TRUE(repaired.valid);
    EXPECT_FALSE(repaired.torn);
    EXPECT_EQ(repaired.records.size(), 2u);
    std::remove(path.c_str());
}

TEST(TuningCacheDurability, BitFlipDropsFromTheCorruptFrameOn)
{
    const std::string path = ::testing::TempDir() + "ft_cache_flip.j";
    TuningCache cache;
    fillThreeRecords(cache);
    ASSERT_TRUE(cache.save(path));
    const std::string bytes = readBytes(path);

    // Flip a payload bit of the second record's frame.
    const size_t pos = bytes.find("0ddba11000000002");
    ASSERT_NE(pos, std::string::npos);
    ASSERT_TRUE(FaultInjector::flipBit(path, pos * 8 + 1));
    TuningCache loaded;
    ASSERT_TRUE(loaded.load(path));
    // The valid prefix survives; the corrupt frame and everything after
    // it (unreliable framing) are dropped.
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_TRUE(loaded.lookup(recordKey(1)).has_value());
    std::remove(path.c_str());
}

TEST(TuningCacheDurability, TruncationToHeaderStartsEmpty)
{
    const std::string path = ::testing::TempDir() + "ft_cache_trunc.j";
    TuningCache cache;
    fillThreeRecords(cache);
    ASSERT_TRUE(cache.save(path));
    const std::string bytes = readBytes(path);

    // Truncate just past the header: zero records, but not an error.
    const size_t header_end = bytes.find('\n') + 1;
    ASSERT_TRUE(FaultInjector::writeTorn(path, bytes, header_end));
    TuningCache loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.size(), 0u);
    std::remove(path.c_str());
}

TEST(TuningCacheDurability, BareTextFileLoadsEmpty)
{
    // Well-formed records as bare tab-separated lines (no journal
    // framing, with or without a count header) are not a cache file:
    // load() succeeds with nothing in it.
    const std::string path = ::testing::TempDir() + "ft_cache_bare.j";
    const std::string record = "0ddba11000000001\t3.5\tv1|s=2,2|r=4|"
                               "reorder=1|fuse=1|unroll=0|vec=8|rows=1|"
                               "part=1\n";
    for (const std::string &bytes :
         {record, "#flextensor-cache v2\n" + record + "#count=1\n"}) {
        writeBytes(path, bytes);
        TuningCache loaded;
        ASSERT_TRUE(loaded.load(path));
        EXPECT_EQ(loaded.size(), 0u);
    }
    std::remove(path.c_str());
}

TEST(TuningCacheDurability, SaveLoadRoundTripStaysLossless)
{
    const std::string path = ::testing::TempDir() + "ft_cache_rt.j";
    TuningCache cache;
    fillThreeRecords(cache);
    ASSERT_TRUE(cache.save(path));
    // The file is a kind-tagged journal now (format v3).
    EXPECT_TRUE(looksLikeJournal(readBytes(path)));
    TuningCache loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.size(), 3u);
    for (int i = 1; i <= 3; ++i) {
        auto hit = loaded.lookup(recordKey(i));
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(hit->gflops, recordGflops(i));
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// DispatchTable corruption corpus.

DispatchTable
smallTable()
{
    ShapeVar var;
    var.name = "m";
    var.lo = 1;
    var.hi = 8;
    DispatchTable table("gemm_m", "V100", var);
    DispatchEntry a;
    a.lo = 1;
    a.hi = 4;
    a.gflops = 123.5;
    a.trials = 9;
    table.addEntry(a);
    DispatchEntry b;
    b.lo = 5;
    b.hi = 8;
    b.gflops = 456.25;
    b.trials = 9;
    table.addEntry(b);
    return table;
}

TEST(DispatchDurability, SaveLoadRoundTripIsByteExact)
{
    const std::string path = ::testing::TempDir() + "ft_dispatch_rt.j";
    DispatchTable table = smallTable();
    ASSERT_TRUE(table.saveToFile(path));
    EXPECT_TRUE(looksLikeJournal(readBytes(path)));
    auto loaded = DispatchTable::loadFromFile(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->serialize(), table.serialize());
    std::remove(path.c_str());
}

TEST(DispatchDurability, BareTextFileIsIgnored)
{
    // A well-formed table written as bare serialize() text, without the
    // journal framing, is not a dispatch table file.
    const std::string path = ::testing::TempDir() + "ft_dispatch_bare.j";
    DispatchTable table = smallTable();
    ASSERT_TRUE(DispatchTable::deserialize(table.serialize()).has_value());
    writeBytes(path, table.serialize());
    EXPECT_FALSE(DispatchTable::loadFromFile(path).has_value());
    std::remove(path.c_str());
}

TEST(DispatchDurability, TornAndBitFlippedFilesFailCleanly)
{
    const std::string path = ::testing::TempDir() + "ft_dispatch_bad.j";
    DispatchTable table = smallTable();
    ASSERT_TRUE(table.saveToFile(path));
    const std::string bytes = readBytes(path);

    // The single frame torn mid-payload: no intact snapshot remains.
    ASSERT_TRUE(FaultInjector::writeTorn(path, bytes, bytes.size() / 2));
    EXPECT_FALSE(DispatchTable::loadFromFile(path).has_value());

    // A flipped payload bit fails the CRC, not the parser.
    writeBytes(path, bytes);
    const size_t pos = bytes.find("entry");
    ASSERT_NE(pos, std::string::npos);
    ASSERT_TRUE(FaultInjector::flipBit(path, pos * 8 + 4));
    EXPECT_FALSE(DispatchTable::loadFromFile(path).has_value());

    // Missing file: quiet nullopt.
    std::remove(path.c_str());
    EXPECT_FALSE(DispatchTable::loadFromFile(path).has_value());
}

// ---------------------------------------------------------------------
// Cost-model journal adopter.

/** Build a persisted cost model: N trials plus one model snapshot. */
void
writeCostModelJournal(const std::string &path, int trials)
{
    CostModelOptions options;
    options.syncRefit = true;
    options.refitEvery = trials; // exactly one refit, at the end
    options.persistPath = path;
    CostModel model(options);
    for (int i = 0; i < trials; ++i) {
        double a = static_cast<double>(i) / trials;
        model.recordTrial({a, 1.0 - a}, a * 100.0, 11);
    }
}

TEST(CostModelDurability, SurvivesEverySeededCrashOffset)
{
    const std::string path = ::testing::TempDir() + "ft_costmodel_crash.j";
    std::remove(path.c_str());
    const int trials = 24;
    writeCostModelJournal(path, trials);
    const std::string bytes = readBytes(path);
    JournalContents intact = readJournal(path);
    ASSERT_TRUE(intact.valid);
    ASSERT_EQ(intact.kind, kCostModelJournalKind);
    // trials + the model snapshot frame
    ASSERT_EQ(intact.records.size(), static_cast<size_t>(trials) + 1);

    // Tear the file at seeded crash offsets across its whole length: a
    // reload must never fail, never see a phantom trial, and repair the
    // tail so a subsequent recordTrial lands on a clean boundary.
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        FaultProfile profile;
        profile.seed = seed;
        FaultInjector injector(profile);
        for (uint64_t schedule = 0; schedule < 8; ++schedule) {
            const size_t crash_at =
                injector.crashOffsetFor(path, bytes.size(), schedule) %
                bytes.size();
            ASSERT_TRUE(FaultInjector::writeTorn(path, bytes, crash_at));

            CostModelOptions options;
            options.persistPath = path;
            CostModel reloaded(options);
            reloaded.load(); // false is fine (header torn); no crash
            EXPECT_LE(reloaded.numTrials(),
                      static_cast<size_t>(trials))
                << "seed " << seed << " schedule " << schedule
                << " crash_at " << crash_at;
            if (reloaded.ready()) {
                EXPECT_TRUE(std::isfinite(reloaded.predict({0.5, 0.5})));
            }

            // The append-after-recovery contract: the repaired file
            // accepts a new trial and stays a valid journal.
            reloaded.recordTrial({0.5, 0.5}, 1.0, 11);
            JournalContents after = readJournal(path);
            if (crash_at > 0) {
                EXPECT_TRUE(after.valid)
                    << "seed " << seed << " schedule " << schedule;
                EXPECT_FALSE(after.torn)
                    << "seed " << seed << " schedule " << schedule;
            }
        }
    }
    std::remove(path.c_str());
}

TEST(CostModelDurability, ModelSnapshotSurvivesTornTrialTail)
{
    // Tear INSIDE the last trial frame appended after the model
    // snapshot: the reloaded model must still be ready with the exact
    // snapshot predictions.
    const std::string path = ::testing::TempDir() + "ft_costmodel_tail.j";
    std::remove(path.c_str());
    writeCostModelJournal(path, 16);

    std::vector<double> before;
    {
        CostModelOptions options;
        options.persistPath = path;
        CostModel model(options);
        ASSERT_TRUE(model.load());
        ASSERT_TRUE(model.ready());
        for (int i = 0; i < 8; ++i)
            before.push_back(
                model.predict({i / 8.0, 1.0 - i / 8.0}));
        model.recordTrial({0.25, 0.75}, 5.0, 11); // post-snapshot trial
    }
    const std::string bytes = readBytes(path);
    ASSERT_TRUE(
        FaultInjector::writeTorn(path, bytes, bytes.size() - 10));

    CostModelOptions options;
    options.persistPath = path;
    CostModel reloaded(options);
    ASSERT_TRUE(reloaded.load());
    ASSERT_TRUE(reloaded.ready());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(reloaded.predict({i / 8.0, 1.0 - i / 8.0}),
                  before[i]);
    std::remove(path.c_str());
}

} // namespace
} // namespace ft
