/**
 * @file
 * Tests for admission control and graceful degradation: the virtual
 * worker timeline, deadline-aware shedding, priority headroom, brownout
 * mode, the per-op circuit breaker, end-to-end deadline propagation into
 * the explorer, and dispatch-table persistence across service restarts.
 *
 * The controller never reads a clock itself — every test drives time as
 * plain doubles (and the service tests inject a manual clock via
 * ServiceOptions::clock), so all decisions here are deterministic.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "family/tune_family.h"
#include "ir/graph.h"
#include "ir/inline.h"
#include "obs/trace_report.h"
#include "ops/ops.h"
#include "ops/shapes.h"
#include "serve/admission.h"
#include "serve/service.h"

namespace ft {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

AdmissionOptions
plainOptions()
{
    AdmissionOptions options;
    options.workers = 1;
    options.maxQueueDepth = 32;
    options.brownoutDepth = 32; // never triggers unless a test lowers it
    options.interactiveReserve = 0;
    options.defaultCostSeconds = 1.0;
    options.safetyFactor = 1.0; // clean arithmetic in timeline tests
    return options;
}

TEST(AdmissionController, ReservesVirtualWorkerTimeline)
{
    AdmissionController ctrl(plainOptions());

    AdmissionDecision first = ctrl.admit("gemm", RequestPriority::Batch,
                                         /*now=*/0.0, /*deadline=*/kInf);
    ASSERT_TRUE(first.admitted());
    EXPECT_DOUBLE_EQ(first.predictedStart, 0.0);
    EXPECT_DOUBLE_EQ(first.predictedFinish, 1.0);

    // The single worker is busy until t=1, so the next request queues
    // behind it on the virtual timeline.
    AdmissionDecision second = ctrl.admit("gemm", RequestPriority::Batch,
                                          0.0, kInf);
    ASSERT_TRUE(second.admitted());
    EXPECT_DOUBLE_EQ(second.predictedStart, 1.0);
    EXPECT_DOUBLE_EQ(second.predictedFinish, 2.0);
    EXPECT_NE(second.ticket, first.ticket);

    AdmissionStats stats = ctrl.stats();
    EXPECT_EQ(stats.admitted, 2u);
    EXPECT_EQ(stats.queueDepth, 2u);

    ctrl.onComplete("gemm", first.ticket, 1.0, true);
    ctrl.onComplete("gemm", second.ticket, 2.0, true);
    EXPECT_EQ(ctrl.stats().queueDepth, 0u);
}

TEST(AdmissionController, ShedsWhenPredictedFinishMissesDeadline)
{
    AdmissionOptions options = plainOptions();
    options.defaultCostSeconds = 2.0;
    AdmissionController ctrl(options);

    // Cost 2s against a 1s deadline: infeasible, shed immediately.
    AdmissionDecision shed = ctrl.admit("gemm", RequestPriority::Batch,
                                        /*now=*/10.0, /*deadline=*/11.0);
    EXPECT_EQ(shed.outcome, AdmissionOutcome::Shed);
    EXPECT_NE(shed.reason.find("code=FT-ADM-DEADLINE"), std::string::npos);
    EXPECT_EQ(ctrl.stats().shedDeadline, 1u);
    // The shed request reserved nothing.
    EXPECT_EQ(ctrl.stats().queueDepth, 0u);

    // The same request with a feasible deadline is admitted and carries
    // its remaining wall budget for propagation down the stack.
    AdmissionDecision ok = ctrl.admit("gemm", RequestPriority::Batch,
                                      10.0, 13.0);
    ASSERT_TRUE(ok.admitted());
    EXPECT_DOUBLE_EQ(ok.budgetSeconds, 3.0);
}

TEST(AdmissionController, QueueBoundWithInteractiveHeadroom)
{
    AdmissionOptions options = plainOptions();
    options.maxQueueDepth = 4;
    options.interactiveReserve = 2;
    options.brownoutDepth = 100; // out of the way
    AdmissionController ctrl(options);

    // Batch fills only up to maxQueueDepth - reserve = 2 slots.
    EXPECT_TRUE(
        ctrl.admit("a", RequestPriority::Batch, 0.0, kInf).admitted());
    EXPECT_TRUE(
        ctrl.admit("b", RequestPriority::Batch, 0.0, kInf).admitted());
    AdmissionDecision shed =
        ctrl.admit("c", RequestPriority::Batch, 0.0, kInf);
    EXPECT_EQ(shed.outcome, AdmissionOutcome::Shed);
    EXPECT_NE(shed.reason.find("code=FT-ADM-QUEUE-FULL"),
              std::string::npos);

    // Interactive traffic still has the reserved headroom...
    EXPECT_TRUE(
        ctrl.admit("d", RequestPriority::Interactive, 0.0, kInf)
            .admitted());
    EXPECT_TRUE(
        ctrl.admit("e", RequestPriority::Interactive, 0.0, kInf)
            .admitted());
    // ...and only sheds once the whole queue is full.
    EXPECT_EQ(ctrl.admit("f", RequestPriority::Interactive, 0.0, kInf)
                  .outcome,
              AdmissionOutcome::Shed);
    EXPECT_EQ(ctrl.stats().shedQueueFull, 2u);
}

TEST(AdmissionController, BrownoutPastSaturationDepth)
{
    AdmissionOptions options = plainOptions();
    options.maxQueueDepth = 8;
    options.brownoutDepth = 2;
    AdmissionController ctrl(options);

    EXPECT_TRUE(
        ctrl.admit("a", RequestPriority::Batch, 0.0, kInf).admitted());
    EXPECT_TRUE(
        ctrl.admit("b", RequestPriority::Batch, 0.0, kInf).admitted());
    AdmissionDecision brown =
        ctrl.admit("c", RequestPriority::Batch, 0.0, kInf);
    EXPECT_EQ(brown.outcome, AdmissionOutcome::Brownout);
    EXPECT_NE(brown.reason.find("code=FT-ADM-BROWNOUT"),
              std::string::npos);
    EXPECT_EQ(ctrl.stats().brownouts, 1u);
}

TEST(AdmissionController, BreakerOpensCoolsDownAndProbes)
{
    AdmissionOptions options = plainOptions();
    options.maxQueueDepth = 8;
    options.breakerFailureThreshold = 2;
    options.breakerCooldownSeconds = 10.0;
    AdmissionController ctrl(options);

    // Two consecutive failures open the breaker.
    for (int i = 0; i < 2; ++i) {
        AdmissionDecision d =
            ctrl.admit("bad", RequestPriority::Batch, 0.0, kInf);
        ASSERT_TRUE(d.admitted());
        ctrl.onComplete("bad", d.ticket, 1.0, /*success=*/false);
    }
    EXPECT_TRUE(ctrl.breakerOpen("bad", 5.0));
    EXPECT_EQ(ctrl.stats().breakersOpened, 1u);
    EXPECT_EQ(ctrl.stats().openBreakers, 1u);
    // Other op keys are unaffected.
    EXPECT_FALSE(ctrl.breakerOpen("good", 5.0));

    // During the cooldown the key is rejected outright.
    AdmissionDecision rejected =
        ctrl.admit("bad", RequestPriority::Batch, 5.0, kInf);
    EXPECT_EQ(rejected.outcome, AdmissionOutcome::BreakerOpen);
    EXPECT_NE(rejected.reason.find("code=FT-ADM-BREAKER"),
              std::string::npos);

    // After the cooldown exactly one probe passes (half-open) while a
    // second concurrent request is still rejected.
    AdmissionDecision probe =
        ctrl.admit("bad", RequestPriority::Batch, 12.0, kInf);
    ASSERT_TRUE(probe.admitted());
    EXPECT_EQ(ctrl.admit("bad", RequestPriority::Batch, 12.0, kInf)
                  .outcome,
              AdmissionOutcome::BreakerOpen);

    // A successful probe closes the breaker for good.
    ctrl.onComplete("bad", probe.ticket, 13.0, /*success=*/true);
    EXPECT_FALSE(ctrl.breakerOpen("bad", 13.0));
    EXPECT_TRUE(
        ctrl.admit("bad", RequestPriority::Batch, 13.0, kInf).admitted());
}

TEST(AdmissionController, FailedProbeReopensBreaker)
{
    AdmissionOptions options = plainOptions();
    options.maxQueueDepth = 8;
    options.breakerFailureThreshold = 1;
    options.breakerCooldownSeconds = 10.0;
    AdmissionController ctrl(options);

    AdmissionDecision d =
        ctrl.admit("bad", RequestPriority::Batch, 0.0, kInf);
    ASSERT_TRUE(d.admitted());
    ctrl.onComplete("bad", d.ticket, 1.0, false);
    EXPECT_TRUE(ctrl.breakerOpen("bad", 1.0));

    AdmissionDecision probe =
        ctrl.admit("bad", RequestPriority::Batch, 12.0, kInf);
    ASSERT_TRUE(probe.admitted());
    ctrl.onComplete("bad", probe.ticket, 13.0, false);
    // Re-opened: rejects for another full cooldown from the failure.
    EXPECT_TRUE(ctrl.breakerOpen("bad", 20.0));
    EXPECT_EQ(ctrl.admit("bad", RequestPriority::Batch, 20.0, kInf)
                  .outcome,
              AdmissionOutcome::BreakerOpen);
    // The breaker never closed in between, so this is still ONE open
    // episode, not two.
    EXPECT_EQ(ctrl.stats().breakersOpened, 1u);
    EXPECT_EQ(ctrl.stats().openBreakers, 1u);
}

TEST(AdmissionController, ProbeShedByQueueDoesNotWedgeBreaker)
{
    AdmissionOptions options = plainOptions();
    options.maxQueueDepth = 1;
    options.breakerFailureThreshold = 1;
    options.breakerCooldownSeconds = 1.0;
    AdmissionController ctrl(options);

    AdmissionDecision d =
        ctrl.admit("bad", RequestPriority::Batch, 0.0, kInf);
    ASSERT_TRUE(d.admitted());
    ctrl.onComplete("bad", d.ticket, 0.5, false);

    // Fill the single queue slot with another key, then probe: the
    // probe is shed by the queue bound, which must NOT consume the
    // half-open slot.
    AdmissionDecision filler =
        ctrl.admit("other", RequestPriority::Batch, 2.0, kInf);
    ASSERT_TRUE(filler.admitted());
    EXPECT_EQ(ctrl.admit("bad", RequestPriority::Batch, 2.0, kInf).outcome,
              AdmissionOutcome::Shed);

    // Once the queue drains, the probe goes through.
    ctrl.onComplete("other", filler.ticket, 3.0, true);
    EXPECT_TRUE(
        ctrl.admit("bad", RequestPriority::Batch, 3.0, kInf).admitted());
}

TEST(AdmissionController, EarlyCompletionReleasesReservationAndFeedsEwma)
{
    AdmissionOptions options = plainOptions();
    options.defaultCostSeconds = 10.0;
    options.costEwmaAlpha = 0.5;
    AdmissionController ctrl(options);

    AdmissionDecision d =
        ctrl.admit("gemm", RequestPriority::Batch, 0.0, kInf);
    ASSERT_TRUE(d.admitted());
    EXPECT_DOUBLE_EQ(d.predictedFinish, 10.0);

    // Finishing at t=2 releases the pessimistic reservation, and the
    // first observation replaces the default cost outright.
    ctrl.onComplete("gemm", d.ticket, 2.0, true);
    EXPECT_DOUBLE_EQ(ctrl.stats().costEstimate, 2.0);
    AdmissionDecision next =
        ctrl.admit("gemm", RequestPriority::Batch, 2.0, /*deadline=*/5.0);
    ASSERT_TRUE(next.admitted());
    EXPECT_DOUBLE_EQ(next.predictedStart, 2.0);
    EXPECT_DOUBLE_EQ(next.predictedFinish, 4.0);

    // Subsequent observations blend by the EWMA weight: 0.5*4 + 0.5*2.
    ctrl.onComplete("gemm", next.ticket, 6.0, true);
    EXPECT_DOUBLE_EQ(ctrl.stats().costEstimate, 3.0);
}

TEST(AdmissionController, EmitsCountersHistogramAndTracePoints)
{
    const std::string trace_path =
        ::testing::TempDir() + "ft_admission_trace.jsonl";
    MetricsRegistry metrics;
    TraceRecorder trace;

    AdmissionOptions options = plainOptions();
    options.maxQueueDepth = 2;
    options.brownoutDepth = 1;
    options.breakerFailureThreshold = 1;
    options.breakerCooldownSeconds = 100.0;
    options.metrics = &metrics;
    options.trace = &trace;
    AdmissionController ctrl(options);

    AdmissionDecision a =
        ctrl.admit("op", RequestPriority::Batch, 0.0, kInf);
    ASSERT_TRUE(a.admitted());
    EXPECT_EQ(ctrl.admit("op", RequestPriority::Batch, 0.0, kInf).outcome,
              AdmissionOutcome::Brownout); // depth 1 >= brownoutDepth
    ctrl.onComplete("op", a.ticket, 1.0, false); // opens the breaker
    EXPECT_EQ(ctrl.admit("op", RequestPriority::Batch, 2.0, kInf).outcome,
              AdmissionOutcome::BreakerOpen);

    MetricsSnapshot snap = metrics.snapshot();
    EXPECT_EQ(snap.counter("admission.admitted"), 1u);
    EXPECT_EQ(snap.counter("admission.brownouts"), 1u);
    EXPECT_EQ(snap.counter("admission.breaker_rejects"), 1u);
    EXPECT_EQ(snap.counter("admission.breakers_opened"), 1u);
    bool saw_hist = false;
    for (const auto &h : snap.histograms)
        saw_hist = saw_hist || (h.name == "admission.queue_depth" &&
                                h.total == 3);
    EXPECT_TRUE(saw_hist);

    // The trace timeline folds into the trace-report serve section.
    ASSERT_TRUE(trace.writeFile(trace_path));
    auto report = loadTraceReport(trace_path);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->serve.admitted, 1u);
    EXPECT_EQ(report->serve.brownouts, 1u);
    EXPECT_EQ(report->serve.breakerRejects, 1u);
    EXPECT_EQ(report->serve.breakerOpens, 1u);
    bool saw_brownout_reason = false;
    for (const auto &[code, count] : report->serve.reasons)
        saw_brownout_reason =
            saw_brownout_reason || (code == "FT-ADM-BROWNOUT" && count == 1);
    EXPECT_TRUE(saw_brownout_reason);
    EXPECT_FALSE(report->serve.queueDepths.empty());
    // And the JSON rendering carries the serve object.
    EXPECT_NE(traceReportJson(*report).find("\"serve\""),
              std::string::npos);
    std::remove(trace_path.c_str());
}

// ---------------------------------------------------------------------
// Service-level integration: admitted request paths.

Tensor
admissionGemm(int64_t n = 64)
{
    Tensor a = placeholder("A", {n, n});
    Tensor b = placeholder("B", {n, n});
    return ops::gemm(a, b);
}

TEST(ServiceAdmission, ShedRequestIsRejectedImmediatelyWithReason)
{
    double now = 0.0;
    ServiceOptions service_options;
    service_options.requestThreads = 1;
    service_options.clock = [&now] { return now; };
    service_options.admission.maxQueueDepth = 1;
    service_options.admission.interactiveReserve = 0;
    service_options.admission.brownoutDepth = 1;
    TuningService service(service_options);

    // Occupy the only queue slot directly (never completed), so the
    // next submission is decided synchronously without racing a run.
    ASSERT_TRUE(service.admission()
                    .admit("occupier", RequestPriority::Interactive, now,
                           kInf)
                    .admitted());

    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 4;
    auto future = service.submitAdmitted(admissionGemm(), Target::forGpu(v100()),
                                         options,
                                         {RequestPriority::Batch, kInf});
    // A shed request resolves without ever occupying a pool slot.
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    AdmittedReport report = future.get();
    EXPECT_EQ(report.outcome, AdmissionOutcome::Shed);
    EXPECT_FALSE(report.served());
    EXPECT_NE(report.reason.find("code=FT-ADM-QUEUE-FULL"),
              std::string::npos);
    EXPECT_EQ(service.stats().admission.shedQueueFull, 1u);
}

TEST(ServiceAdmission, BrownoutAnswersFromReportCacheOnly)
{
    double now = 0.0;
    ServiceOptions service_options;
    service_options.clock = [&now] { return now; };
    service_options.admission.maxQueueDepth = 8;
    service_options.admission.brownoutDepth = 2;
    TuningService service(service_options);

    Tensor out = admissionGemm();
    Target target = Target::forGpu(v100());
    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 6;

    // Warm the LRU report cache while the queue is empty.
    AdmittedReport warm = service.tuneAdmitted(out, target, options);
    ASSERT_EQ(warm.outcome, AdmissionOutcome::Admitted);
    ASSERT_TRUE(warm.served());

    // Saturate the controller past the brownout depth.
    for (int i = 0; i < 2; ++i)
        ASSERT_TRUE(service.admission()
                        .admit("occupier", RequestPriority::Interactive,
                               now, kInf)
                        .admitted());

    // The cached request is answered degraded, from the cache...
    AdmittedReport cached = service.tuneAdmitted(out, target, options);
    EXPECT_EQ(cached.outcome, AdmissionOutcome::Brownout);
    ASSERT_TRUE(cached.served());
    EXPECT_TRUE(cached.degradedAnswer);
    EXPECT_TRUE(cached.report->fromCache);
    EXPECT_DOUBLE_EQ(cached.report->gflops, warm.report->gflops);

    // ...while an uncached request is refused rather than tuned.
    TuneOptions uncached = options;
    uncached.explore.seed += 99;
    AdmittedReport refused = service.tuneAdmitted(out, target, uncached);
    EXPECT_EQ(refused.outcome, AdmissionOutcome::Brownout);
    EXPECT_FALSE(refused.served());
    EXPECT_NE(refused.reason.find("code=FT-ADM-BROWNOUT"),
              std::string::npos);

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.brownoutServed, 1u);
    EXPECT_EQ(stats.admission.brownouts, 2u);
    // Brownout never started fresh tuning work.
    EXPECT_EQ(stats.tuningRuns, 1u);
}

/**
 * A search that finds no valid schedule is a failed run, not an answer.
 * Each Winograd stage of YOLO C13 on V100 (Random, 2 trials, seed 3:
 * the all-failed case of TuneGraph.FailedNodeIsChargedItsExpertSchedule)
 * is refused with FT-ADM-RUN-FAILED and charged to its op's breaker,
 * and a brownout does not answer from the invalid report left cached.
 */
TEST(ServiceAdmission, FailedSearchIsRefusedAndNeverServedFromCache)
{
    const auto &layer = ops::yoloLayers()[12];
    Tensor input = placeholder("I", {1, layer.inChannels, layer.imageSize,
                                     layer.imageSize});
    Tensor weight =
        placeholder("W", {layer.outChannels, layer.inChannels, 3, 3});
    Tensor wino = ops::conv2dWinograd(input, weight, 1);
    const Target target = Target::forGpu(v100());
    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 2;
    options.explore.seed = 3;

    double now = 0.0;
    ServiceOptions service_options;
    service_options.clock = [&now] { return now; };
    service_options.admission.breakerFailureThreshold = 1;
    TuningService service(service_options);
    std::vector<Operation> stages;
    for (const Operation &op : postOrderTraverse(inlineGraph(wino))) {
        if (op->isPlaceholder() || op->isConstant())
            continue;
        stages.push_back(op);
        AdmittedReport got = service.tuneAnchorAdmitted(op, target, options);
        EXPECT_EQ(got.outcome, AdmissionOutcome::Shed) << op->name();
        EXPECT_FALSE(got.served()) << op->name();
        EXPECT_NE(got.reason.find("code=FT-ADM-RUN-FAILED"),
                  std::string::npos)
            << op->name();
    }
    ASSERT_EQ(stages.size(), 4u);
    EXPECT_EQ(service.stats().admission.breakersOpened, 4u);
    EXPECT_EQ(service.stats().tuningRuns, 4u);

    // Saturated past the brownout depth, the failed stage's cached
    // report is not an answer.
    ServiceOptions brownout_options;
    brownout_options.clock = [&now] { return now; };
    brownout_options.admission.maxQueueDepth = 8;
    brownout_options.admission.brownoutDepth = 2;
    TuningService saturated(brownout_options);
    EXPECT_FALSE(
        saturated.tuneAnchorAdmitted(stages[0], target, options).served());
    for (int i = 0; i < 2; ++i)
        ASSERT_TRUE(saturated.admission()
                        .admit("occupier", RequestPriority::Interactive,
                               now, kInf)
                        .admitted());
    AdmittedReport refused =
        saturated.tuneAnchorAdmitted(stages[0], target, options);
    EXPECT_EQ(refused.outcome, AdmissionOutcome::Brownout);
    EXPECT_FALSE(refused.served());
    EXPECT_NE(refused.reason.find("code=FT-ADM-BROWNOUT"), std::string::npos);
    EXPECT_EQ(saturated.stats().brownoutServed, 0u);
    EXPECT_EQ(saturated.stats().tuningRuns, 1u);
}

TEST(ServiceAdmission, DeadlinePropagatesIntoExploreBudget)
{
    double now = 100.0;
    ServiceOptions service_options;
    service_options.clock = [&now] { return now; };
    service_options.simBudgetPerSecond = 5.0; // 2s wall -> 10 sim seconds
    service_options.admission.defaultCostSeconds = 0.1;
    TuningService service(service_options);

    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 200; // far more than 10 sim seconds allow
    AdmittedReport report =
        service.tuneAdmitted(admissionGemm(), Target::forGpu(v100()),
                             options, {RequestPriority::Batch, 2.0});
    ASSERT_EQ(report.outcome, AdmissionOutcome::Admitted);
    ASSERT_TRUE(report.served());
    // The run was cut at the propagated simulated deadline and returned
    // its best-so-far instead of blowing the request deadline. The cut
    // lands at trial granularity: the in-flight measurement may finish
    // just past the line, but nothing new starts after it.
    EXPECT_TRUE(report.report->degraded);
    EXPECT_LT(report.report->simExploreSeconds, 2.0 * 10.0);
    EXPECT_LT(report.report->trials, 200);
    EXPECT_GT(report.report->gflops, 0.0);
}

TEST(ServiceAdmission, DeadlineShedHappensBeforeAnyWork)
{
    double now = 0.0;
    ServiceOptions service_options;
    service_options.clock = [&now] { return now; };
    service_options.admission.defaultCostSeconds = 60.0;
    service_options.admission.safetyFactor = 1.0;
    TuningService service(service_options);

    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 4;
    AdmittedReport report =
        service.tuneAdmitted(admissionGemm(), Target::forGpu(v100()),
                             options, {RequestPriority::Batch, 1.0});
    EXPECT_EQ(report.outcome, AdmissionOutcome::Shed);
    EXPECT_FALSE(report.served());
    EXPECT_NE(report.reason.find("code=FT-ADM-DEADLINE"),
              std::string::npos);
    EXPECT_EQ(service.stats().tuningRuns, 0u);
}

TEST(ServiceAdmission, ServeShapeBrownoutAnswersFromDispatchTableOnly)
{
    double now = 0.0;
    ServiceOptions service_options;
    service_options.clock = [&now] { return now; };
    service_options.admission.maxQueueDepth = 8;
    service_options.admission.brownoutDepth = 1;
    TuningService service(service_options);

    ShapeVar var;
    var.name = "m";
    var.lo = 1;
    var.hi = 16;
    ShapeFamily family = gemmOverM(/*n=*/64, /*k=*/64, var);
    Target target = Target::forGpu(v100());
    FamilyTuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 6;
    options.explore.warmupPoints = 4;
    options.samplesPerBucket = 1;

    // Publish the family's dispatch table while unloaded.
    service.tuneFamily(family, target, options);

    // Saturate into brownout.
    ASSERT_TRUE(service.admission()
                    .admit("occupier", RequestPriority::Batch, now, kInf)
                    .admitted());

    AdmittedServeResult hit =
        service.serveShapeAdmitted(family, 7, target, options);
    EXPECT_EQ(hit.outcome, AdmissionOutcome::Brownout);
    ASSERT_TRUE(hit.served());
    EXPECT_TRUE(hit.degradedAnswer);
    EXPECT_TRUE(hit.result->fromDispatch);

    // A family with no published table is refused in brownout.
    ShapeVar var2 = var;
    var2.hi = 8;
    ShapeFamily other = gemmOverM(/*n=*/32, /*k=*/32, var2);
    AdmittedServeResult miss =
        service.serveShapeAdmitted(other, 3, target, options);
    EXPECT_EQ(miss.outcome, AdmissionOutcome::Brownout);
    EXPECT_FALSE(miss.served());
    EXPECT_NE(miss.reason.find("code=FT-ADM-BROWNOUT"),
              std::string::npos);
}

TEST(ServiceAdmission, DispatchTablesPersistAcrossServiceRestart)
{
    const std::string dir =
        ::testing::TempDir() + "ft_dispatch_reload_test";
    std::filesystem::remove_all(dir);

    ShapeVar var;
    var.name = "m";
    var.lo = 1;
    var.hi = 16;
    ShapeFamily family = gemmOverM(/*n=*/64, /*k=*/64, var);
    Target target = Target::forGpu(v100());
    FamilyTuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 6;
    options.explore.warmupPoints = 4;
    options.samplesPerBucket = 1;

    ServiceOptions service_options;
    service_options.dispatchDir = dir;

    FamilyServeResult fresh;
    {
        TuningService first(service_options);
        fresh = first.serveShape(family, 5, target, options);
        EXPECT_FALSE(fresh.fromDispatch);
    }
    // The table was persisted as a journal file.
    size_t files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files += entry.path().extension() == ".dispatch" ? 1 : 0;
    EXPECT_EQ(files, 1u);

    // A fresh service reloads it at startup and serves without tuning.
    TuningService second(service_options);
    FamilyServeResult reloaded = second.serveShape(family, 5, target, options);
    EXPECT_TRUE(reloaded.fromDispatch);
    EXPECT_DOUBLE_EQ(reloaded.gflops, fresh.gflops);
    EXPECT_EQ(serializeConfig(reloaded.config),
              serializeConfig(fresh.config));
    EXPECT_EQ(second.stats().tuningRuns, 0u);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace ft
