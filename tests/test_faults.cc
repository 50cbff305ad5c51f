/**
 * @file
 * Tests for the fault-tolerant measurement layer: deterministic fault
 * injection, retry/deadline/quarantine policy in ResilientEvaluator,
 * deadline-degraded exploration runs, checkpoint/resume determinism,
 * fault counters flowing through the TuningService, and corrupt-file
 * recovery in TuningCache.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "explore/checkpoint.h"
#include "explore/tuner.h"
#include "ops/ops.h"
#include "serve/service.h"
#include "support/fault_injector.h"
#include "support/journal.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace ft {
namespace {

Tensor
faultGemm(int64_t n = 256)
{
    Tensor a = placeholder("A", {n, n});
    Tensor b = placeholder("B", {n, n});
    return ops::gemm(a, b);
}

/** Shared fixture: a GEMM schedule space on V100. */
class FaultTest : public ::testing::Test
{
  protected:
    FaultTest()
        : out_(faultGemm()),
          target_(Target::forGpu(v100())),
          space_(buildSpace(out_.op(), target_))
    {}

    std::vector<Point> randomPoints(int n, uint64_t seed)
    {
        Rng rng(seed);
        std::vector<Point> points;
        for (int i = 0; i < n; ++i)
            points.push_back(space_.randomPoint(rng));
        return points;
    }

    Tensor out_;
    Target target_;
    ScheduleSpace space_;
};

TEST(FaultInjector, ModeAssignmentIsDeterministic)
{
    FaultProfile profile;
    profile.transient = 0.2;
    profile.permanent = 0.1;
    profile.timeout = 0.1;
    profile.outlier = 0.1;
    profile.seed = 42;
    FaultInjector a(profile), b(profile);

    int faulted = 0, differ_under_new_seed = 0;
    FaultProfile reseeded = profile;
    reseeded.seed = 43;
    FaultInjector c(reseeded);
    for (int i = 0; i < 200; ++i) {
        std::string key = "point-" + std::to_string(i);
        EXPECT_EQ(a.pointMode(key), b.pointMode(key));
        if (a.pointMode(key) != FaultKind::None)
            ++faulted;
        if (a.pointMode(key) != c.pointMode(key))
            ++differ_under_new_seed;
    }
    // Half the points carry a fault in expectation; the seed matters.
    EXPECT_GT(faulted, 40);
    EXPECT_LT(faulted, 160);
    EXPECT_GT(differ_under_new_seed, 0);

    FaultProfile off;
    FaultInjector none(off);
    EXPECT_FALSE(off.enabled());
    EXPECT_EQ(none.pointMode("anything"), FaultKind::None);
}

TEST(FaultInjector, ParseProfileSpec)
{
    auto p = parseFaultProfile(
        "transient=0.1,permanent=0.05,timeout=0.02,outlier=0.1,"
        "flaky=2,hang=5.5,scale=100,seed=7");
    ASSERT_TRUE(p.has_value());
    EXPECT_DOUBLE_EQ(p->transient, 0.1);
    EXPECT_DOUBLE_EQ(p->permanent, 0.05);
    EXPECT_DOUBLE_EQ(p->timeout, 0.02);
    EXPECT_DOUBLE_EQ(p->outlier, 0.1);
    EXPECT_EQ(p->transientFailures, 2);
    EXPECT_DOUBLE_EQ(p->hangSeconds, 5.5);
    EXPECT_DOUBLE_EQ(p->outlierScale, 100.0);
    EXPECT_EQ(p->seed, 7u);
    EXPECT_TRUE(p->enabled());

    EXPECT_FALSE(parseFaultProfile("bogus=1").has_value());
    EXPECT_FALSE(parseFaultProfile("transient=nope").has_value());
    // Probabilities must stay a distribution.
    EXPECT_FALSE(parseFaultProfile("transient=0.9,permanent=0.9"));
    EXPECT_FALSE(parseFaultProfile("transient=-0.1"));
}

TEST_F(FaultTest, DisabledInjectorIsBitIdenticalToNone)
{
    auto points = randomPoints(30, 17);

    Evaluator plain(out_.op(), space_, target_);
    ResilientEvaluator none(plain, nullptr, /*parallelism=*/4);
    EXPECT_FALSE(none.faultsActive());
    std::vector<double> expect = none.evaluate(points);

    FaultInjector disabled(FaultProfile{});
    ResilienceOptions options;
    options.injector = &disabled;
    Evaluator wrapped(out_.op(), space_, target_);
    ResilientEvaluator resilient(wrapped, nullptr, /*parallelism=*/4,
                                 options);
    EXPECT_FALSE(resilient.faultsActive());
    std::vector<double> got = resilient.evaluate(points);

    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_DOUBLE_EQ(got[i], expect[i]);
    EXPECT_DOUBLE_EQ(wrapped.simulatedSeconds(), plain.simulatedSeconds());
    ASSERT_EQ(wrapped.history().size(), plain.history().size());
    for (size_t i = 0; i < plain.history().size(); ++i) {
        EXPECT_EQ(wrapped.history()[i].point.key(),
                  plain.history()[i].point.key());
        EXPECT_DOUBLE_EQ(wrapped.history()[i].gflops,
                         plain.history()[i].gflops);
    }
    EXPECT_EQ(resilient.stats().failures, 0u);
    EXPECT_EQ(resilient.quarantine().size(), 0u);
}

TEST_F(FaultTest, FaultedBatchesOnAPoolMatchSequentialBitForBit)
{
    // The pool only scores; the fault policy, the clock and the commit
    // order must not depend on it. Overlapping batches mix fresh,
    // known and quarantined points.
    FaultProfile profile;
    profile.transient = 0.2;
    profile.permanent = 0.15;
    profile.timeout = 0.1;
    profile.outlier = 0.1;
    profile.seed = 41;
    FaultInjector injector(profile);
    ResilienceOptions options;
    options.injector = &injector;
    options.repeats = 3;

    const auto points = randomPoints(60, 43);
    ThreadPool pool(4);
    Evaluator seq(out_.op(), space_, target_);
    Evaluator par(out_.op(), space_, target_);
    ResilientEvaluator rseq(seq, nullptr, /*parallelism=*/4, options);
    ResilientEvaluator rpar(par, &pool, /*parallelism=*/4, options);
    for (size_t start : {0, 15, 30}) {
        const std::vector<Point> batch(points.begin() + start,
                                       points.begin() + start + 30);
        const std::vector<double> a = rseq.evaluate(batch);
        const std::vector<double> b = rpar.evaluate(batch);
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i)
            EXPECT_EQ(a[i], b[i]) << i;
    }

    ASSERT_EQ(par.history().size(), seq.history().size());
    for (size_t i = 0; i < seq.history().size(); ++i) {
        EXPECT_EQ(par.history()[i].point.key64(),
                  seq.history()[i].point.key64());
        EXPECT_EQ(par.history()[i].gflops, seq.history()[i].gflops);
    }
    EXPECT_EQ(par.simulatedSeconds(), seq.simulatedSeconds());
    EXPECT_EQ(par.curve(), seq.curve());
    EXPECT_EQ(rpar.stats().measurements, rseq.stats().measurements);
    EXPECT_EQ(rpar.stats().failures, rseq.stats().failures);
    EXPECT_EQ(rpar.stats().retries, rseq.stats().retries);
    EXPECT_EQ(rpar.stats().timeouts, rseq.stats().timeouts);
    EXPECT_EQ(rpar.stats().quarantined, rseq.stats().quarantined);
    EXPECT_GT(rseq.stats().quarantined, 0u);
    EXPECT_GT(rseq.stats().timeouts, 0u);
    ASSERT_EQ(rpar.quarantine().size(), rseq.quarantine().size());
    for (size_t i = 0; i < rseq.quarantine().size(); ++i) {
        EXPECT_EQ(rpar.quarantine()[i].key64(),
                  rseq.quarantine()[i].key64());
    }
}

TEST_F(FaultTest, TransientFailureRecoveredByRetry)
{
    auto points = randomPoints(20, 23);

    // Clean reference values.
    Evaluator clean(out_.op(), space_, target_);
    std::vector<double> expect;
    for (const Point &p : points)
        expect.push_back(clean.evaluate(p));

    FaultProfile profile;
    profile.transient = 1.0; // every point fails once, then recovers
    FaultInjector injector(profile);
    ResilienceOptions options;
    options.injector = &injector;
    options.maxRetries = 2;

    Evaluator eval(out_.op(), space_, target_);
    ResilientEvaluator resilient(eval, nullptr, 1, options);
    std::vector<double> got = resilient.evaluate(points);

    // Retries recover the true value for every point...
    for (size_t i = 0; i < points.size(); ++i)
        EXPECT_DOUBLE_EQ(got[i], expect[i]);
    // ...at a real cost: failures and retries counted, clock inflated by
    // the extra attempts and backoff waits.
    EXPECT_GT(resilient.stats().failures, 0u);
    EXPECT_GT(resilient.stats().retries, 0u);
    EXPECT_EQ(resilient.stats().quarantined, 0u);
    EXPECT_EQ(resilient.quarantine().size(), 0u);
    EXPECT_GT(eval.simulatedSeconds(), clean.simulatedSeconds());
}

TEST_F(FaultTest, PermanentFailureIsQuarantined)
{
    auto points = randomPoints(12, 29);

    FaultProfile profile;
    profile.permanent = 1.0;
    FaultInjector injector(profile);
    ResilienceOptions options;
    options.injector = &injector;
    options.maxRetries = 1;

    Evaluator eval(out_.op(), space_, target_);
    ResilientEvaluator resilient(eval, nullptr, 1, options);
    std::vector<double> got = resilient.evaluate(points);

    for (double v : got)
        EXPECT_DOUBLE_EQ(v, kInvalidGflops);
    const size_t fresh = eval.history().size();
    EXPECT_EQ(resilient.quarantine().size(), fresh);
    EXPECT_EQ(resilient.stats().quarantined, fresh);
    for (const Point &p : points)
        EXPECT_TRUE(resilient.quarantined(p));

    // Quarantined points are never measured again: the evaluator cache
    // serves them and the counters stand still.
    const uint64_t measurements = resilient.stats().measurements;
    resilient.evaluate(points);
    EXPECT_EQ(resilient.stats().measurements, measurements);
    EXPECT_EQ(eval.history().size(), fresh);
}

TEST_F(FaultTest, TimeoutChargedToSimClockAndCapped)
{
    Point p = randomPoints(1, 31)[0];

    FaultProfile profile;
    profile.timeout = 1.0;
    profile.hangSeconds = 50.0;
    FaultInjector injector(profile);
    ResilienceOptions options;
    options.injector = &injector;
    options.maxRetries = 0;
    options.trialDeadlineSeconds = 2.0;

    Evaluator eval(out_.op(), space_, target_);
    ResilientEvaluator resilient(eval, nullptr, 1, options);
    double v = resilient.evaluate(p);

    // The hang is killed at the per-trial deadline, not after the full
    // 50 simulated seconds, and reports an invalid measurement.
    EXPECT_DOUBLE_EQ(v, kInvalidGflops);
    EXPECT_DOUBLE_EQ(eval.simulatedSeconds(), 2.0);
    EXPECT_EQ(resilient.stats().timeouts, 1u);
    EXPECT_TRUE(resilient.quarantined(p));
}

TEST_F(FaultTest, OutlierRejectedByRepeatedMeasureMedian)
{
    Point p = randomPoints(1, 37)[0];
    Evaluator clean(out_.op(), space_, target_);
    const double truth = clean.evaluate(p);

    FaultProfile profile;
    profile.outlier = 1.0;
    profile.outlierScale = 10.0;
    FaultInjector injector(profile);

    // A single measurement swallows the corrupted reading...
    ResilienceOptions single;
    single.injector = &injector;
    single.repeats = 1;
    Evaluator eval1(out_.op(), space_, target_);
    ResilientEvaluator r1(eval1, nullptr, 1, single);
    EXPECT_DOUBLE_EQ(r1.evaluate(p), truth * 10.0);

    // ...while three repeats reject it by lower median.
    ResilienceOptions repeated = single;
    repeated.repeats = 3;
    Evaluator eval3(out_.op(), space_, target_);
    ResilientEvaluator r3(eval3, nullptr, 1, repeated);
    EXPECT_DOUBLE_EQ(r3.evaluate(p), truth);
}

TEST_F(FaultTest, DeadlineDegradesRunWithMonotoneBestSoFar)
{
    ExploreOptions options;
    options.trials = 60;
    options.seed = 0xdead11;
    options.deadlineSimSeconds = 8.0; // well under 60 measured seconds

    Evaluator eval(out_.op(), space_, target_);
    ExploreResult result = explore(Method::Random, eval, options);

    EXPECT_TRUE(result.deadlineExceeded);
    EXPECT_LT(result.trialsUsed, 60);
    EXPECT_GT(result.trialsUsed, 0);
    // The partial report still carries a meaningful, monotone curve whose
    // final value is the reported best.
    ASSERT_FALSE(result.curve.empty());
    for (size_t i = 1; i < result.curve.size(); ++i) {
        EXPECT_LE(result.curve[i - 1].second, result.curve[i].second);
        EXPECT_LE(result.curve[i - 1].first, result.curve[i].first);
    }
    EXPECT_DOUBLE_EQ(result.curve.back().second, result.bestGflops);
    EXPECT_DOUBLE_EQ(result.bestGflops, eval.best());
}

/** Kill-then-resume must replay to the uninterrupted run, bit for bit. */
TEST_F(FaultTest, CheckpointResumeIsBitIdenticalForQMethod)
{
    const std::string path = "/tmp/flextensor_ckpt_test.ftc";
    std::remove(path.c_str());

    ExploreOptions options;
    options.trials = 12;
    options.warmupPoints = 8;
    options.startingPoints = 2;
    options.seed = 0xc0ffee;

    // Reference: one uninterrupted run.
    Evaluator ref(out_.op(), space_, target_);
    ExploreResult uninterrupted = explore(Method::QMethod, ref, options);

    // "Crashed" run: executes only half the trials, snapshotting every 3.
    ExploreOptions partial = options;
    partial.trials = 6;
    partial.checkpointPath = path;
    partial.checkpointEveryTrials = 3;
    Evaluator killed(out_.op(), space_, target_);
    ExploreResult first_half = explore(Method::QMethod, killed, partial);
    EXPECT_FALSE(first_half.resumed);

    // Resume from the snapshot and finish the full trial budget.
    ExploreOptions resume = partial;
    resume.trials = options.trials;
    Evaluator second(out_.op(), space_, target_);
    ExploreResult resumed = explore(Method::QMethod, second, resume);
    EXPECT_TRUE(resumed.resumed);

    EXPECT_EQ(resumed.bestPoint.key(), uninterrupted.bestPoint.key());
    EXPECT_DOUBLE_EQ(resumed.bestGflops, uninterrupted.bestGflops);
    EXPECT_DOUBLE_EQ(resumed.simSeconds, uninterrupted.simSeconds);
    EXPECT_EQ(resumed.trialsUsed, uninterrupted.trialsUsed);
    ASSERT_EQ(second.history().size(), ref.history().size());
    for (size_t i = 0; i < ref.history().size(); ++i) {
        EXPECT_EQ(second.history()[i].point.key(),
                  ref.history()[i].point.key());
        EXPECT_DOUBLE_EQ(second.history()[i].gflops,
                         ref.history()[i].gflops);
    }
    ASSERT_EQ(second.curve().size(), ref.curve().size());
    for (size_t i = 0; i < ref.curve().size(); ++i) {
        EXPECT_DOUBLE_EQ(second.curve()[i].first, ref.curve()[i].first);
        EXPECT_DOUBLE_EQ(second.curve()[i].second, ref.curve()[i].second);
    }
    std::remove(path.c_str());
}

/** AutoTVM resumes its per-run GBT from the snapshot, not a refit. */
TEST_F(FaultTest, CheckpointResumeIsBitIdenticalForAutoTvm)
{
    FaultProfile profile;
    profile.transient = 0.3;
    profile.timeout = 0.1;
    profile.seed = 7;
    FaultInjector injector(profile);

    const FaultInjector *const profiles[] = {nullptr, &injector};
    for (const FaultInjector *faults : profiles) {
        SCOPED_TRACE(faults ? "with faults" : "without faults");
        const std::string path = "/tmp/flextensor_ckpt_autotvm.ftc";
        std::remove(path.c_str());

        ExploreOptions options;
        options.trials = 40; // measurements: five rounds of eight
        options.seed = 0xa070;
        options.resilience.injector = faults;

        Evaluator ref(out_.op(), space_, target_);
        ExploreResult uninterrupted = explore(Method::AutoTvm, ref, options);
        if (faults) {
            EXPECT_GT(uninterrupted.failures, 0u);
        }

        // "Crashed" run: snapshots after round 2 (16 measured) and is
        // cut short in round 3 (budget 20).
        ExploreOptions partial = options;
        partial.trials = 20;
        partial.checkpointPath = path;
        partial.checkpointEveryTrials = 2;
        Evaluator killed(out_.op(), space_, target_);
        EXPECT_FALSE(explore(Method::AutoTvm, killed, partial).resumed);

        ExploreOptions resume = partial;
        resume.trials = options.trials;
        Evaluator second(out_.op(), space_, target_);
        ExploreResult resumed = explore(Method::AutoTvm, second, resume);
        EXPECT_TRUE(resumed.resumed);

        EXPECT_EQ(resumed.bestPoint.key(), uninterrupted.bestPoint.key());
        EXPECT_EQ(resumed.bestGflops, uninterrupted.bestGflops);
        EXPECT_EQ(resumed.simSeconds, uninterrupted.simSeconds);
        EXPECT_EQ(resumed.trialsUsed, uninterrupted.trialsUsed);
        EXPECT_EQ(resumed.failures, uninterrupted.failures);
        EXPECT_EQ(resumed.quarantined, uninterrupted.quarantined);
        ASSERT_EQ(second.history().size(), ref.history().size());
        for (size_t i = 0; i < ref.history().size(); ++i) {
            EXPECT_EQ(second.history()[i].point.key(),
                      ref.history()[i].point.key());
            EXPECT_EQ(second.history()[i].gflops, ref.history()[i].gflops);
        }
        ASSERT_EQ(second.curve().size(), ref.curve().size());
        for (size_t i = 0; i < ref.curve().size(); ++i) {
            EXPECT_EQ(second.curve()[i].first, ref.curve()[i].first);
            EXPECT_EQ(second.curve()[i].second, ref.curve()[i].second);
        }
        std::remove(path.c_str());
    }
}

TEST_F(FaultTest, CheckpointResumeIsBitIdenticalUnderFaults)
{
    const std::string path = "/tmp/flextensor_ckpt_faulty.ftc";
    std::remove(path.c_str());

    FaultProfile profile;
    profile.transient = 0.3;
    profile.timeout = 0.1;
    profile.seed = 99;
    FaultInjector injector(profile);

    ExploreOptions options;
    options.trials = 10;
    options.warmupPoints = 6;
    options.startingPoints = 2;
    options.seed = 0xfa17;
    options.resilience.injector = &injector;

    Evaluator ref(out_.op(), space_, target_);
    ExploreResult uninterrupted = explore(Method::PMethod, ref, options);

    ExploreOptions partial = options;
    partial.trials = 5;
    partial.checkpointPath = path;
    partial.checkpointEveryTrials = 5;
    Evaluator killed(out_.op(), space_, target_);
    explore(Method::PMethod, killed, partial);

    ExploreOptions resume = partial;
    resume.trials = options.trials;
    Evaluator second(out_.op(), space_, target_);
    ExploreResult resumed = explore(Method::PMethod, second, resume);
    EXPECT_TRUE(resumed.resumed);

    EXPECT_EQ(resumed.bestPoint.key(), uninterrupted.bestPoint.key());
    EXPECT_DOUBLE_EQ(resumed.bestGflops, uninterrupted.bestGflops);
    EXPECT_DOUBLE_EQ(resumed.simSeconds, uninterrupted.simSeconds);
    EXPECT_EQ(resumed.failures, uninterrupted.failures);
    EXPECT_EQ(resumed.timeouts, uninterrupted.timeouts);
    EXPECT_EQ(resumed.quarantined, uninterrupted.quarantined);
    ASSERT_EQ(second.history().size(), ref.history().size());
    for (size_t i = 0; i < ref.history().size(); ++i) {
        EXPECT_EQ(second.history()[i].point.key(),
                  ref.history()[i].point.key());
        EXPECT_DOUBLE_EQ(second.history()[i].gflops,
                         ref.history()[i].gflops);
    }
    std::remove(path.c_str());
}

TEST_F(FaultTest, CorruptCheckpointIsIgnoredAndRunStartsFresh)
{
    const std::string path = "/tmp/flextensor_ckpt_corrupt.ftc";
    const std::string body =
        "ftckpt|v=2|method=random|seed=1|space=9/9|trial=4\n"
        "this line is garbage\n"; // and no end record
    std::remove(path.c_str());
    ASSERT_TRUE(journalAppend(path, "ckpt", body));
    EXPECT_FALSE(loadCheckpoint(path).has_value());

    // A bare text file is not a checkpoint journal: ignored, loudly.
    const std::string bare = "/tmp/flextensor_ckpt_bare.ftc";
    {
        std::ofstream out(bare);
        out << body;
    }
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(loadCheckpoint(bare).has_value());
    EXPECT_NE(::testing::internal::GetCapturedStderr().find("warn:"),
              std::string::npos);
    std::remove(bare.c_str());

    ExploreOptions options;
    options.trials = 8;
    options.seed = 0xabc;
    Evaluator plain(out_.op(), space_, target_);
    ExploreResult expect = explore(Method::Random, plain, options);

    options.checkpointPath = path;
    Evaluator eval(out_.op(), space_, target_);
    ExploreResult got = explore(Method::Random, eval, options);
    EXPECT_FALSE(got.resumed);
    EXPECT_EQ(got.bestPoint.key(), expect.bestPoint.key());
    EXPECT_DOUBLE_EQ(got.bestGflops, expect.bestGflops);
    std::remove(path.c_str());
}

TEST(FaultService, DeadlineAndFaultCountersFlowThroughService)
{
    FaultProfile profile;
    profile.transient = 0.5;
    profile.seed = 5;
    FaultInjector injector(profile);

    ServiceOptions service_options;
    service_options.evalThreads = 2;
    service_options.requestThreads = 2;
    TuningService service(service_options);
    TuneOptions options;
    options.method = Method::PMethod;
    options.explore.trials = 8;
    options.explore.startingPoints = 2;
    options.explore.deadlineSimSeconds = 10.0;
    options.explore.resilience.injector = &injector;

    TuneReport report =
        service.tune(faultGemm(), Target::forGpu(v100()), options);
    EXPECT_TRUE(report.degraded);
    EXPECT_GT(report.failures, 0u);

    ServiceStats stats = service.stats();
    EXPECT_GE(stats.degradedReports, 1u);
    EXPECT_EQ(stats.failures, report.failures);
    EXPECT_EQ(stats.retries, report.retries);
    EXPECT_GT(report.gflops, 0.0); // best-so-far, not an error sentinel
}

TEST(FaultCache, TruncatedCacheFileKeepsOnlyIntactRecords)
{
    const std::string path = "/tmp/flextensor_cache_truncated.txt";
    TuningCache cache;
    TuningRecord record;
    record.key = 0x256;
    record.gflops = 123.0;
    cache.put(record);
    record.key = 0x512;
    cache.put(record);
    ASSERT_TRUE(cache.save(path));

    // Chop off the final line, as a crash mid-write would. The cache is
    // journalled one frame per record, so this tears the last frame only.
    std::ifstream in(path);
    std::stringstream kept;
    std::string line, prev;
    bool first = true;
    while (std::getline(in, line)) {
        if (!first)
            kept << prev << "\n";
        prev = line;
        first = false;
    }
    in.close();
    std::ofstream(path) << kept.str();

    TuningCache loaded;
    EXPECT_TRUE(loaded.load(path)); // torn frame dropped, intact prefix kept
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_TRUE(loaded.lookup(0x256).has_value());
    EXPECT_FALSE(loaded.lookup(0x512).has_value());
    std::remove(path.c_str());
}

} // namespace
} // namespace ft
