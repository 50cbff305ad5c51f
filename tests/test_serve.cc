/**
 * @file
 * Tests for the concurrent serving layer: thread-pool correctness under
 * stress, deterministic parallel batch evaluation (same best schedule as
 * a sequential run for a fixed seed), request coalescing in the
 * TuningService, and thread-safe/crash-safe TuningCache round-trips.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dnn/models.h"
#include "explore/resilient.h"
#include "explore/tuner.h"
#include "family/family.h"
#include "graph/dag.h"
#include "ml/costmodel.h"
#include "ops/ops.h"
#include "serve/request_key.h"
#include "serve/service.h"
#include "space/builder.h"
#include "support/fault_injector.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace ft {
namespace {

Tensor
serveGemm(int64_t n = 256)
{
    Tensor a = placeholder("A", {n, n});
    Tensor b = placeholder("B", {n, n});
    return ops::gemm(a, b);
}

TEST(ThreadPool, StressManySmallJobs)
{
    ThreadPool pool(8, /*queue_capacity=*/64);
    std::atomic<int> counter{0};
    const int jobs = 10000;
    for (int i = 0; i < jobs; ++i)
        pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(counter.load(), jobs);
    EXPECT_EQ(pool.completedJobs(), static_cast<uint64_t>(jobs));
    EXPECT_EQ(pool.queueDepth(), 0u);
}

TEST(ThreadPool, BoundedQueueBackpressure)
{
    // A tiny queue with slow jobs forces submit() to block; everything
    // must still run exactly once.
    ThreadPool pool(2, /*queue_capacity=*/2);
    std::atomic<int> counter{0};
    for (int i = 0; i < 64; ++i) {
        pool.submit([&counter] {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            counter.fetch_add(1);
        });
    }
    pool.wait();
    EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, DrainsQueueOnDestruction)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i)
            pool.submit([&counter] { counter.fetch_add(1); });
    }
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndices)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(),
                     [&](size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    // Concurrent parallelFor calls from different threads share the pool.
    std::atomic<long> sum{0};
    std::thread other([&] {
        pool.parallelFor(500, [&](size_t i) {
            sum.fetch_add(static_cast<long>(i));
        });
    });
    pool.parallelFor(500,
                     [&](size_t i) { sum.fetch_add(static_cast<long>(i)); });
    other.join();
    EXPECT_EQ(sum.load(), 2L * (499L * 500L / 2));
}

TEST(ThreadPool, ParallelForRunsOnTheCallerWhileWorkersAreBusy)
{
    // The caller claims indices as worker 0, so a call finishes even
    // while every pool worker is busy elsewhere; its queued helper later
    // finds nothing left to claim.
    ThreadPool pool(2);
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    for (int i = 0; i < pool.numThreads(); ++i) {
        pool.submit([&] {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return release; });
        });
    }
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> worker(64, 99);
    std::vector<std::thread::id> ranOn(worker.size());
    pool.parallelFor(worker.size(), [&](size_t w, size_t i) {
        worker[i] = w;
        ranOn[i] = std::this_thread::get_id();
    });
    for (size_t i = 0; i < worker.size(); ++i) {
        EXPECT_EQ(worker[i], 0u) << i;
        EXPECT_EQ(ranOn[i], caller) << i;
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    pool.wait();
}

TEST(ThreadPoolDeathTest, NestedParallelForFailsInsteadOfDeadlocking)
{
    // Re-exec the binary for the child: the parent already runs threads.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            ThreadPool pool(2);
            pool.submit([&pool] { pool.parallelFor(4, [](size_t) {}); });
            pool.wait();
        },
        "nested parallelFor");
}

class BatchEvalTest : public ::testing::Test
{
  protected:
    BatchEvalTest()
        : out_(serveGemm()),
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

TEST_F(BatchEvalTest, MatchesSequentialEvaluation)
{
    auto points = randomPoints(40, 7);

    Evaluator seq(out_.op(), space_, target_);
    for (const Point &p : points)
        seq.evaluate(p);

    ThreadPool pool(4);
    Evaluator par(out_.op(), space_, target_);
    ResilientEvaluator batch(par, &pool);
    std::vector<double> values = batch.evaluate(points);

    ASSERT_EQ(par.history().size(), seq.history().size());
    for (size_t i = 0; i < seq.history().size(); ++i) {
        EXPECT_EQ(par.history()[i].point.key(), seq.history()[i].point.key());
        EXPECT_DOUBLE_EQ(par.history()[i].gflops, seq.history()[i].gflops);
    }
    EXPECT_DOUBLE_EQ(par.best(), seq.best());
    EXPECT_EQ(par.bestPoint().key(), seq.bestPoint().key());
    for (size_t i = 0; i < points.size(); ++i)
        EXPECT_DOUBLE_EQ(values[i], seq.evaluate(points[i]));
}

TEST_F(BatchEvalTest, ParallelismOneReproducesSequentialClock)
{
    auto points = randomPoints(20, 11);
    Evaluator seq(out_.op(), space_, target_);
    for (const Point &p : points)
        seq.evaluate(p);

    Evaluator one(out_.op(), space_, target_);
    ResilientEvaluator batch(one, nullptr, /*parallelism=*/1);
    batch.evaluate(points);
    EXPECT_DOUBLE_EQ(one.simulatedSeconds(), seq.simulatedSeconds());
    ASSERT_EQ(one.curve().size(), seq.curve().size());
    for (size_t i = 0; i < seq.curve().size(); ++i) {
        EXPECT_DOUBLE_EQ(one.curve()[i].first, seq.curve()[i].first);
        EXPECT_DOUBLE_EQ(one.curve()[i].second, seq.curve()[i].second);
    }
}

TEST_F(BatchEvalTest, ChargesCeilBatchOverParallelismRounds)
{
    auto points = randomPoints(64, 13);
    Evaluator eval(out_.op(), space_, target_);
    eval.setMeasureCost(1.0);
    ThreadPool pool(4);
    ResilientEvaluator batch(eval, &pool, /*parallelism=*/4);
    batch.evaluate(points);
    const int fresh = eval.numTrials(); // random duplicates are possible
    // ceil(fresh / 4) rounds of one second each.
    EXPECT_NEAR(eval.simulatedSeconds(), std::ceil(fresh / 4.0), 1e-9);
    // Re-evaluating the same batch is free.
    batch.evaluate(points);
    EXPECT_EQ(eval.numTrials(), fresh);
    EXPECT_NEAR(eval.simulatedSeconds(), std::ceil(fresh / 4.0), 1e-9);
}

/** Parallel exploration must find the same schedule as sequential. */
TEST(ServeDeterminism, PMethodParallelEqualsSequential)
{
    Tensor out = serveGemm();
    Target target = Target::forGpu(v100());
    ScheduleSpace space = buildSpace(out.op(), target);

    ExploreOptions seq_opts;
    seq_opts.trials = 4;
    seq_opts.startingPoints = 2;
    seq_opts.seed = 0xbeef;
    Evaluator seq(out.op(), space, target);
    ExploreResult rs = explore(Method::PMethod, seq, seq_opts);

    ThreadPool pool(4);
    ExploreOptions par_opts = seq_opts;
    par_opts.evalPool = &pool;
    Evaluator par(out.op(), space, target);
    ExploreResult rp = explore(Method::PMethod, par, par_opts);

    EXPECT_EQ(rp.bestPoint.key(), rs.bestPoint.key());
    EXPECT_DOUBLE_EQ(rp.bestGflops, rs.bestGflops);
    EXPECT_EQ(rp.trialsUsed, rs.trialsUsed);
    ASSERT_EQ(par.history().size(), seq.history().size());
    for (size_t i = 0; i < seq.history().size(); ++i)
        EXPECT_EQ(par.history()[i].point.key(), seq.history()[i].point.key());
    // Parallel measurement compresses the simulated clock.
    EXPECT_LT(rp.simSeconds, rs.simSeconds);

    // And a parallel run is reproducible, clock included.
    Evaluator par2(out.op(), space, target);
    ExploreResult rp2 = explore(Method::PMethod, par2, par_opts);
    EXPECT_EQ(rp2.bestPoint.key(), rp.bestPoint.key());
    EXPECT_DOUBLE_EQ(rp2.bestGflops, rp.bestGflops);
    EXPECT_DOUBLE_EQ(rp2.simSeconds, rp.simSeconds);
}

TEST(ServeDeterminism, AutoTvmParallelEqualsSequential)
{
    Tensor out = serveGemm();
    Target target = Target::forGpu(v100());
    SpaceOptions so;
    so.templateRestricted = true;
    ScheduleSpace space = buildSpace(out.op(), target, so);

    ExploreOptions seq_opts;
    seq_opts.trials = 32;
    seq_opts.seed = 0xfeed;
    Evaluator seq(out.op(), space, target);
    ExploreResult rs = explore(Method::AutoTvm, seq, seq_opts);

    ThreadPool pool(4);
    ExploreOptions par_opts = seq_opts;
    par_opts.evalPool = &pool;
    Evaluator par(out.op(), space, target);
    ExploreResult rp = explore(Method::AutoTvm, par, par_opts);

    EXPECT_EQ(rp.bestPoint.key(), rs.bestPoint.key());
    EXPECT_DOUBLE_EQ(rp.bestGflops, rs.bestGflops);
    EXPECT_EQ(rp.trialsUsed, rs.trialsUsed);
    ASSERT_EQ(par.history().size(), seq.history().size());
    for (size_t i = 0; i < seq.history().size(); ++i)
        EXPECT_EQ(par.history()[i].point.key(), seq.history()[i].point.key());
}

TEST(TuningService, CoalescesConcurrentIdenticalRequests)
{
    ServiceOptions service_options;
    service_options.evalThreads = 4;
    service_options.requestThreads = 2;
    TuningService service(service_options);
    Tensor out = serveGemm();
    Target target = Target::forGpu(v100());
    TuneOptions options;
    options.method = Method::PMethod;
    options.explore.trials = 6;

    const int callers = 8;
    std::vector<TuneReport> reports(callers);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < callers; ++i) {
        threads.emplace_back([&, i] {
            ready.fetch_add(1);
            while (ready.load() < callers) // start together
                std::this_thread::yield();
            reports[i] = service.tune(out, target, options);
        });
    }
    for (auto &t : threads)
        t.join();

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests, static_cast<uint64_t>(callers));
    EXPECT_EQ(stats.tuningRuns, 1u);
    // Everyone who didn't own the run either joined it in flight or
    // arrived after completion and hit the result cache; which one
    // depends on the schedule, so RequestTable's
    // ConcurrentCallersJoinTheRunInFlight forces and checks the joins.
    EXPECT_EQ(stats.coalescedJoins + stats.resultCacheHits,
              static_cast<uint64_t>(callers - 1));
    for (int i = 1; i < callers; ++i) {
        EXPECT_DOUBLE_EQ(reports[i].gflops, reports[0].gflops);
        EXPECT_EQ(serializeConfig(reports[i].config),
                  serializeConfig(reports[0].config));
    }
    EXPECT_EQ(stats.inflight, 0u);
}

TEST(TuningService, ResultCacheServesRepeatedRequests)
{
    TuningService service;
    Tensor out = serveGemm();
    Target target = Target::forGpu(v100());
    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 10;

    TuneReport first = service.tune(out, target, options);
    EXPECT_FALSE(first.fromCache);
    TuneReport second = service.tune(out, target, options);
    EXPECT_TRUE(second.fromCache);
    EXPECT_DOUBLE_EQ(second.gflops, first.gflops);

    // A different seed is a different request identity.
    options.explore.seed += 1;
    TuneReport third = service.tune(out, target, options);
    EXPECT_FALSE(third.fromCache);

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests, 3u);
    EXPECT_EQ(stats.tuningRuns, 2u);
    EXPECT_EQ(stats.resultCacheHits, 1u);
    EXPECT_GT(stats.evaluations, 0u);
}

/**
 * YOLO-v1's conv22 (14x14 input, stride 2) and conv23 (7x7, stride 1)
 * share name, output and reduce extents. The service keys requests by
 * the structural OpKey, so conv23 after conv22 is a fresh search whose
 * report equals a direct tune of conv23, not conv22's cached answer.
 */
TEST(TuningService, StructurallyDifferentLayersDoNotShareReports)
{
    Tensor conv22, conv23;
    for (const FusedOp &op : partitionAndFuse(yoloV1(1))) {
        if (op.name == "conv22")
            conv22 = op.output;
        if (op.name == "conv23")
            conv23 = op.output;
    }
    ASSERT_TRUE(conv22.defined() && conv23.defined());
    ASSERT_EQ(conv22.shape(), conv23.shape());
    Target target = Target::forGpu(v100());
    TuneOptions options;
    options.explore.trials = 10;

    TuningService service;
    service.tune(conv22, target, options);
    TuneReport served = service.tune(conv23, target, options);
    TuneReport direct = ft::tune(conv23, target, options);
    EXPECT_FALSE(served.fromCache);
    EXPECT_EQ(serializeConfig(served.config), serializeConfig(direct.config));
    EXPECT_EQ(served.gflops, direct.gflops);
    EXPECT_EQ(served.kernelSeconds, direct.kernelSeconds);
    EXPECT_EQ(served.trials, direct.trials);
    EXPECT_EQ(service.stats().resultCacheHits, 0u);
}

/**
 * A network of one dense layer. Its DAG, its anchor tuned as a single
 * op and a gemm family all tune anchors with two spatial and one reduce
 * axis, so one seed point fits each of their spaces.
 */
Network
tinyDense()
{
    Network net;
    net.name = "tiny";
    net.inputShape = {1, 16, 2, 2};
    LayerSpec fc;
    fc.kind = LayerSpec::Kind::Dense;
    fc.name = "fc";
    fc.units = 32;
    net.layers.push_back(fc);
    return net;
}

/** One result-shaping field changed away from its default. */
struct FieldCase
{
    std::string field;
    std::function<void(TuneOptions &)> tune;         ///< op and DAG
    std::function<void(FamilyTuneOptions &)> family; ///< family
};

/** A case that changes an ExploreOptions field, for every request kind. */
FieldCase
exploreCase(std::string field, std::function<void(ExploreOptions &)> change)
{
    return {std::move(field),
            [change](TuneOptions &o) { change(o.explore); },
            [change](FamilyTuneOptions &o) { change(o.explore); }};
}

/**
 * Tune `family` under `first`, hold that run in flight, then request it
 * under `second`; returns the stats once both are answered.
 */
ServiceStats
overlapFamilyRuns(ShapeFamily family, const Target &target,
                  const FamilyTuneOptions &first,
                  const FamilyTuneOptions &second)
{
    ServiceOptions service_options;
    service_options.evalThreads = 2;
    TuningService service(service_options);
    std::mutex mu;
    std::condition_variable cv;
    bool entered = false, released = false;
    // The first instantiation (inside the first run) blocks until the
    // second request has either joined that run or started its own.
    auto instantiate = family.instantiate;
    family.instantiate = [&, instantiate](int64_t v) {
        {
            std::unique_lock<std::mutex> lock(mu);
            if (!entered) {
                entered = true;
                cv.notify_all();
                cv.wait(lock, [&] { return released; });
            }
        }
        return instantiate(v);
    };
    std::thread a([&] { service.tuneFamily(family, target, first); });
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return entered; });
    }
    std::thread b([&] { service.tuneFamily(family, target, second); });
    for (;;) {
        const ServiceStats stats = service.stats();
        if (stats.coalescedJoins + stats.tuningRuns == 2)
            break;
        std::this_thread::yield();
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        released = true;
    }
    cv.notify_all();
    a.join();
    b.join();
    return service.stats();
}

/**
 * Every field that can change a tuning answer separates requests. A
 * request that differs from an earlier one in that field alone is never
 * answered from the earlier op or DAG report, and never joins the
 * earlier family run while it is in flight.
 */
TEST(TuningService, EveryResultShapingFieldSeparatesRequests)
{
    const Target target = Target::forGpu(v100());
    const Network net = tinyDense();
    const graph::ComputeDag dag = graph::dagFromNetwork(net);
    Tensor op;
    for (const FusedOp &fused : partitionAndFuse(net))
        if (fused.schedulable)
            op = fused.output;
    ASSERT_TRUE(op.defined());
    ShapeVar m;
    m.name = "m";
    m.lo = 1;
    m.hi = 4;
    const ShapeFamily family = gemmOverM(32, 64, m);
    MiniGraph graph(op);
    const Point seed{std::vector<int64_t>(
        buildSpace(anchorOp(graph), target).numSubSpaces(), 0)};

    FaultProfile profile;
    profile.transient = 0.3;
    const FaultInjector faults(profile);
    CostModelOptions model_options;
    model_options.syncRefit = true;
    CostModel model(model_options);
    TuningCache store;
    const std::string ckpt = ::testing::TempDir() + "ft_serve_field.ckpt";
    int ckpts = 0;

    std::vector<FieldCase> cases = {
        {"method", [](TuneOptions &o) { o.method = Method::PMethod; },
         [](FamilyTuneOptions &o) { o.method = Method::PMethod; }},
        {"certify", [](TuneOptions &o) { o.certify = true; },
         [](FamilyTuneOptions &o) { o.certify = true; }},
        {"cache", [&](TuneOptions &o) { o.cache = &store; }, nullptr},
        {"samplesPerBucket", nullptr,
         [](FamilyTuneOptions &o) { o.samplesPerBucket = 1; }},
        exploreCase("trials", [](ExploreOptions &e) { e.trials += 1; }),
        exploreCase("startingPoints",
                    [](ExploreOptions &e) { e.startingPoints = 2; }),
        exploreCase("warmupPoints",
                    [](ExploreOptions &e) { e.warmupPoints += 1; }),
        exploreCase("saGamma", [](ExploreOptions &e) { e.saGamma = 0.5; }),
        exploreCase("trainEvery",
                    [](ExploreOptions &e) { e.trainEvery = 2; }),
        exploreCase("seed", [](ExploreOptions &e) { e.seed += 1; }),
        exploreCase("seedPoints",
                    [&](ExploreOptions &e) { e.seedPoints = {seed}; }),
        exploreCase("targetGflops",
                    [](ExploreOptions &e) { e.targetGflops = 1e9; }),
        exploreCase("faultProfile", [&](ExploreOptions &e) {
            e.resilience.injector = &faults;
        }),
        exploreCase("maxRetries",
                    [](ExploreOptions &e) { e.resilience.maxRetries = 0; }),
        exploreCase("backoffBaseSeconds", [](ExploreOptions &e) {
            e.resilience.backoffBaseSeconds = 1.0;
        }),
        exploreCase("trialDeadlineSeconds", [](ExploreOptions &e) {
            e.resilience.trialDeadlineSeconds = 0.5;
        }),
        exploreCase("repeats",
                    [](ExploreOptions &e) { e.resilience.repeats = 3; }),
        exploreCase("deadlineSimSeconds",
                    [](ExploreOptions &e) { e.deadlineSimSeconds = 1e-3; }),
        exploreCase("checkpointPath", [&](ExploreOptions &e) {
            e.checkpointPath = ckpt + std::to_string(ckpts++);
        }),
        exploreCase("checkpointEveryTrials",
                    [](ExploreOptions &e) { e.checkpointEveryTrials = 2; }),
        exploreCase("costModel",
                    [&](ExploreOptions &e) { e.costModel = &model; }),
        exploreCase("prunerKeep",
                    [](ExploreOptions &e) { e.prunerKeep = 0.5; }),
    };

    TuneOptions base;
    base.explore.trials = 4;
    base.explore.warmupPoints = 4;
    FamilyTuneOptions family_base;
    family_base.explore.trials = 3;
    family_base.explore.warmupPoints = 2;
    for (const FieldCase &c : cases) {
        SCOPED_TRACE(c.field);
        if (c.tune) {
            TuneOptions changed = base;
            c.tune(changed);
            ServiceOptions service_options;
            service_options.evalThreads = 2;
            TuningService service(service_options);
            service.tune(op, target, base);
            EXPECT_FALSE(service.tune(op, target, changed).fromCache);
            service.tuneDag(dag, target, base);
            service.tuneDag(dag, target, changed);
            const ServiceStats stats = service.stats();
            EXPECT_EQ(stats.resultCacheHits, 0u);
            EXPECT_EQ(stats.graphCacheHits, 0u);
            EXPECT_EQ(stats.tuningRuns, 4u);
        }
        if (c.family) {
            FamilyTuneOptions changed = family_base;
            c.family(changed);
            const ServiceStats stats =
                overlapFamilyRuns(family, target, family_base, changed);
            EXPECT_EQ(stats.coalescedJoins, 0u);
            EXPECT_EQ(stats.tuningRuns, 2u);
        }
    }
    // tune() snapshots to each path itself, tuneDag to one file per
    // searched anchor beside it (`<path>.<workloadKey>`).
    const std::string prefix =
        std::filesystem::path(ckpt).filename().string();
    for (const auto &entry :
         std::filesystem::directory_iterator(::testing::TempDir())) {
        if (entry.path().filename().string().rfind(prefix, 0) == 0)
            std::filesystem::remove(entry.path());
    }
}

TEST(TuningService, CertifiedRequestGetsItsOwnCertifiedReport)
{
    TuningService service;
    Tensor out = serveGemm();
    Target target = Target::forGpu(v100());
    TuneOptions options;
    options.explore.trials = 10;

    EXPECT_EQ(service.tune(out, target, options).certificate, nullptr);
    options.certify = true;
    TuneReport certified = service.tune(out, target, options);
    EXPECT_FALSE(certified.fromCache);
    EXPECT_NE(certified.certificate, nullptr);
}

TEST(TuningService, QHyperparametersChangeTheServedAnswer)
{
    TuningService service;
    Tensor out = serveGemm();
    Target target = Target::forGpu(v100());
    TuneOptions options;
    options.explore.trials = 20;

    service.tune(out, target, options);
    options.explore.trainEvery = 2;
    options.explore.saGamma = 0.5;
    TuneReport served = service.tune(out, target, options);
    TuneReport direct = ft::tune(out, target, options);
    EXPECT_FALSE(served.fromCache);
    EXPECT_EQ(serializeConfig(served.config), serializeConfig(direct.config));
    EXPECT_EQ(served.gflops, direct.gflops);
}

TEST(RequestKey, EqualValuesKeyAndHashAlike)
{
    Tensor out = serveGemm(64);
    MiniGraph graph(out);
    const Operation anchor = anchorOp(graph);
    Target target = Target::forGpu(v100());
    TuneOptions a, b;
    a.explore.targetGflops = 0.0;
    b.explore.targetGflops = -0.0;
    a.explore.prunerKeep = std::numeric_limits<double>::quiet_NaN();
    b.explore.prunerKeep = -std::numeric_limits<double>::quiet_NaN();
    const RequestKey ka = RequestKey::op(anchor, target, a);
    const RequestKey kb = RequestKey::op(anchor, target, b);
    EXPECT_EQ(ka, kb);
    EXPECT_EQ(RequestKey::Hash{}(ka), RequestKey::Hash{}(kb));
    // A structurally equal anchor built separately is the same request;
    // another device is not.
    MiniGraph again(serveGemm(64));
    EXPECT_EQ(RequestKey::op(anchorOp(again), target, a), ka);
    EXPECT_NE(RequestKey::op(anchor, Target::forCpu(xeonE5()), a), ka);
}

/**
 * A run that throws hands its exception to every joiner and retires its
 * in-flight entry, so the next identical request runs afresh instead of
 * joining a dead run.
 */
TEST(RequestTable, ThrowingRunRetiresItsEntry)
{
    Counter hits, joins, runs;
    RequestTable<int> table(4, &hits, joins, runs);
    const RequestKey key = RequestKey::dispatch("f", "dev");
    std::exception_ptr joined;
    std::thread joiner;
    auto failingRun = [&]() -> int {
        // Fail only once a second request has joined the run.
        joiner = std::thread([&] {
            try {
                table.joinOrRun(key, [] { return 0; });
            } catch (...) {
                joined = std::current_exception();
            }
        });
        while (joins.value() == 0)
            std::this_thread::yield();
        throw std::runtime_error("run failed");
    };
    EXPECT_THROW(table.joinOrRun(key, failingRun), std::runtime_error);
    ASSERT_TRUE(joiner.joinable());
    joiner.join();
    EXPECT_TRUE(joined != nullptr);
    EXPECT_EQ(table.inflight(), 0u);

    EXPECT_EQ(table.joinOrRun(key, [] { return 7; }), 7);
    bool cached = false;
    EXPECT_EQ(table.joinOrRun(key, [] { return 8; }, &cached), 7);
    EXPECT_TRUE(cached);
    EXPECT_EQ(runs.value(), 2u);
    EXPECT_EQ(joins.value(), 1u);
    EXPECT_EQ(hits.value(), 1u);
}

/**
 * Callers that arrive while a run is in flight join it rather than run
 * again. The owner's run holds until every other caller has joined, so
 * no caller can miss the run and hit the cache instead.
 */
TEST(RequestTable, ConcurrentCallersJoinTheRunInFlight)
{
    Counter hits, joins, runs;
    RequestTable<int> table(4, &hits, joins, runs);
    const RequestKey key = RequestKey::dispatch("f", "dev");
    const int callers = 8;
    std::atomic<int> calls{0};
    auto run = [&] {
        calls.fetch_add(1);
        while (joins.value() < static_cast<uint64_t>(callers - 1))
            std::this_thread::yield();
        return 7;
    };
    std::vector<int> answers(callers);
    std::vector<std::thread> threads;
    for (int i = 0; i < callers; ++i)
        threads.emplace_back([&, i] { answers[i] = table.joinOrRun(key, run); });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(runs.value(), 1u);
    EXPECT_EQ(joins.value(), static_cast<uint64_t>(callers - 1));
    EXPECT_EQ(hits.value(), 0u);
    for (int answer : answers)
        EXPECT_EQ(answer, 7);
    EXPECT_EQ(table.inflight(), 0u);
}

TEST(TuningService, CostModelLifecycleAndStats)
{
    const std::string path =
        ::testing::TempDir() + "ft_serve_costmodel.j";
    std::remove(path.c_str());

    ServiceOptions service_options;
    service_options.enableCostModel = true;
    service_options.costModel.persistPath = path;
    service_options.costModel.refitEvery = 16;

    Tensor out = serveGemm();
    Target target = Target::forGpu(v100());
    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 24;

    size_t first_trials = 0;
    {
        TuningService service(service_options);
        TuneReport report = service.tune(out, target, options);
        EXPECT_FALSE(report.fromCache);
        ServiceStats stats = service.stats();
        EXPECT_GT(stats.costModelTrials, 0u);
        first_trials = stats.costModelTrials;
    } // shutdown stops the trainer and leaves the journal behind

    // A new service restores the model from the journal at startup and
    // keeps training it.
    {
        TuningService service(service_options);
        ServiceStats cold = service.stats();
        EXPECT_EQ(cold.costModelTrials, first_trials);
        options.explore.seed += 1;
        service.tune(out, target, options);
        ServiceStats warm = service.stats();
        EXPECT_GT(warm.costModelTrials, first_trials);
        // The service refits on a background thread; give it a bounded
        // window to publish the first snapshot before asserting.
        for (int i = 0; i < 400 && !warm.costModelReady; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            warm = service.stats();
        }
        EXPECT_TRUE(warm.costModelReady);
    }
    std::remove(path.c_str());
}

TEST(TuningService, PruneKnobChangesRequestIdentity)
{
    // Same workload, same seed: model-on + prune must NOT coalesce
    // with a model-off request — the fingerprint folds both knobs.
    ServiceOptions service_options;
    service_options.enableCostModel = true;
    service_options.costModel.refitEvery = 16;
    TuningService service(service_options);

    Tensor out = serveGemm();
    Target target = Target::forGpu(v100());
    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 24;

    service.tune(out, target, options); // trains the service model
    options.explore.prunerKeep = 0.5;
    TuneReport pruned = service.tune(out, target, options);
    EXPECT_FALSE(pruned.fromCache)
        << "a pruned request must not be served from the unpruned "
        << "request's cache entry";
    EXPECT_GT(pruned.gflops, 0.0);
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.tuningRuns, 2u);
}

TEST(TuningService, GraphRequestsAreKeyedByFingerprint)
{
    TuningService service;
    Target target = Target::forGpu(v100());
    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 6;

    graph::ComputeDag dag = graph::dagFromNetwork(yoloV1(1));
    graph::ComputeDag same = graph::dagFromNetwork(yoloV1(1));
    ASSERT_EQ(dag.fingerprint(), same.fingerprint());

    graph::DagTuneReport first = service.tuneDag(dag, target, options);
    ASSERT_FALSE(first.groups.empty());
    // A structurally identical DAG is the same request: served from the
    // graph report cache without re-partitioning or re-tuning.
    graph::DagTuneReport second = service.tuneDag(same, target, options);
    EXPECT_EQ(second.fingerprint, first.fingerprint);
    EXPECT_EQ(second.partition.groups.size(),
              first.partition.groups.size());
    EXPECT_DOUBLE_EQ(second.totalSeconds, first.totalSeconds);
    EXPECT_EQ(second.trafficBytes, first.trafficBytes);

    ServiceStats after_hit = service.stats();
    EXPECT_EQ(after_hit.graphRequests, 2u);
    EXPECT_EQ(after_hit.graphCacheHits, 1u);

    // A different batch is a different fingerprint, so it tunes anew.
    graph::ComputeDag bigger = graph::dagFromNetwork(yoloV1(2));
    EXPECT_NE(bigger.fingerprint(), dag.fingerprint());
    service.tuneDag(bigger, target, options);
    ServiceStats after_miss = service.stats();
    EXPECT_EQ(after_miss.graphRequests, 3u);
    EXPECT_EQ(after_miss.graphCacheHits, 1u);
}

TEST(TuningService, LruEvictsBeyondCapacity)
{
    ServiceOptions service_options;
    service_options.resultCacheCapacity = 1;
    TuningService service(service_options);
    Target target = Target::forGpu(v100());
    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 4;

    Tensor small = serveGemm(64);
    Tensor large = serveGemm(128);
    service.tune(small, target, options);
    service.tune(large, target, options); // evicts `small`
    TuneReport again = service.tune(small, target, options);
    EXPECT_FALSE(again.fromCache);
    EXPECT_EQ(service.stats().resultCacheSize, 1u);
}

TEST(TuningService, SubmitRunsRequestsConcurrently)
{
    ServiceOptions service_options;
    service_options.evalThreads = 2;
    service_options.requestThreads = 4;
    TuningService service(service_options);
    Target target = Target::forGpu(v100());
    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 6;

    std::vector<Tensor> outs = {serveGemm(64), serveGemm(128),
                                serveGemm(192), serveGemm(256)};
    std::vector<std::future<TuneReport>> futures;
    for (const Tensor &out : outs)
        futures.push_back(service.submit(out, target, options));
    for (auto &f : futures) {
        TuneReport report = f.get();
        EXPECT_GT(report.gflops, 0.0);
    }
    EXPECT_EQ(service.stats().tuningRuns, 4u);
}

TEST(TuningService, DestructionFinishesQueuedRequests)
{
    Target target = Target::forGpu(v100());
    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 4;
    std::vector<std::future<TuneReport>> futures;
    {
        ServiceOptions service_options;
        service_options.evalThreads = 1;
        service_options.requestThreads = 1;
        TuningService service(service_options);
        for (int64_t n : {64, 72, 80, 88})
            futures.push_back(service.submit(serveGemm(n), target, options));
    } // destroyed with requests still queued
    for (auto &f : futures)
        EXPECT_GT(f.get().gflops, 0.0);
}

TEST(TuningService, SharesPersistentCacheAcrossServices)
{
    TuningCache cache;
    ServiceOptions service_options;
    service_options.persistentCache = &cache;
    Tensor out = serveGemm();
    Target target = Target::forGpu(v100());
    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 10;

    TuningService first(service_options);
    first.tune(out, target, options);
    EXPECT_EQ(cache.size(), 1u);

    // A fresh service (cold LRU) is short-circuited by the shared store.
    TuningService second(service_options);
    TuneReport report = second.tune(out, target, options);
    EXPECT_TRUE(report.fromCache);
    EXPECT_EQ(second.stats().persistentCacheHits, 1u);
}

/**
 * A DAG request counts a persistent-cache hit per group whose own
 * search the cache answered. A repeated anchor that reuses an earlier
 * group's report is flagged fromCache too, but is not a cache hit.
 */
TEST(TuningService, DagPersistentCacheHitsCountOnlyCacheAnsweredSearches)
{
    const graph::ComputeDag dag = graph::dagFromNetwork(yoloV1(1));
    const Target target = Target::forGpu(v100());
    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 6;

    TuningService uncached;
    graph::DagTuneReport rep = uncached.tuneDag(dag, target, options);
    int searched = 0, stored = 0, reused = 0;
    for (const graph::SubgraphReport &sub : rep.groups) {
        searched += sub.tuned && sub.reusedFrom < 0;
        stored += sub.tuned && sub.reusedFrom < 0 && sub.report.valid;
        reused += sub.reusedFrom >= 0;
    }
    EXPECT_EQ(reused, 9);
    // Some of these 6-trial searches find no valid schedule; the cache
    // stores only the ones that did.
    EXPECT_LT(stored, searched);
    EXPECT_EQ(uncached.stats().persistentCacheHits, 0u);

    TuningCache cache;
    ServiceOptions service_options;
    service_options.persistentCache = &cache;
    TuningService cold(service_options);
    cold.tuneDag(dag, target, options);
    EXPECT_EQ(cold.stats().persistentCacheHits, 0u);
    EXPECT_EQ(cache.size(), static_cast<size_t>(stored));

    // A fresh service (cold graph report cache) over the warm store:
    // searches whose cached schedule is valid are answered by the
    // cache, and every repeat by the memo.
    TuningService warm(service_options);
    rep = warm.tuneDag(dag, target, options);
    uint64_t answered = 0;
    for (const graph::SubgraphReport &sub : rep.groups) {
        if (sub.reusedFrom >= 0)
            EXPECT_TRUE(sub.report.fromCache) << sub.name;
        else
            answered += sub.report.fromCache;
    }
    EXPECT_GT(answered, 0u);
    EXPECT_EQ(warm.stats().persistentCacheHits, answered);
}

TEST(TuningCacheConcurrent, PutAndLookupFromManyThreads)
{
    TuningCache cache;
    const int writers = 8, per_thread = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < writers; ++t) {
        threads.emplace_back([&cache, t] {
            for (int i = 0; i < per_thread; ++i) {
                TuningRecord record;
                record.key = static_cast<uint64_t>(i % 50);
                record.gflops = t * 1000.0 + i + 1; // valid: > 0
                cache.put(record);
                auto hit = cache.lookup(record.key);
                ASSERT_TRUE(hit.has_value());
                EXPECT_GE(hit->gflops, record.gflops);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(cache.size(), 50u);
    // put() keeps the best value per key.
    auto best = cache.lookup(49);
    ASSERT_TRUE(best.has_value());
    EXPECT_DOUBLE_EQ(best->gflops, (writers - 1) * 1000.0 + 200);
}

TEST(TuningCacheConcurrent, SaveIsAtomicViaTempFileRename)
{
    const std::string path = ::testing::TempDir() + "ft_serve_cache.txt";
    TuningCache cache;
    TuningRecord record;
    record.key = 0x256;
    record.gflops = 123.0;
    cache.put(record);
    ASSERT_TRUE(cache.save(path));
    // No temp file is left behind and the real file is complete.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    TuningCache loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_DOUBLE_EQ(loaded.lookup(record.key)->gflops, 123.0);
    // Saving into a missing directory fails cleanly without touching
    // the destination.
    EXPECT_FALSE(cache.save("/nonexistent-dir/cache.txt"));
    std::remove(path.c_str());
}

} // namespace
} // namespace ft
