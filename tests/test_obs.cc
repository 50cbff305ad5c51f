/**
 * @file
 * Tests for the observability layer: the metrics registry (atomicity,
 * snapshot consistency, null-registry tolerance), the trace recorder
 * (serialization round-trip, deterministic byte-identical timelines),
 * the trace_report fold (per-phase breakdown + Fig. 7 curve), the
 * purity invariant (observation never changes exploration results), and
 * the serving layer's snapshot-consistent stats.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "explore/tuner.h"
#include "family/tune_family.h"
#include "graph/dag.h"
#include "graph/schedule_dag.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_report.h"
#include "ops/ops.h"
#include "serve/service.h"
#include "space/builder.h"
#include "support/fault_injector.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace ft {
namespace {

Tensor
obsGemm()
{
    Tensor a = placeholder("A", {64, 64});
    Tensor b = placeholder("B", {64, 64});
    return ops::gemm(a, b);
}

TEST(Metrics, CounterGaugeHistogramBasics)
{
    MetricsRegistry reg;
    reg.counter("c").add();
    reg.counter("c").add(4);
    reg.gauge("g").set(2.5);
    Histogram &h = reg.histogram("h", {1.0, 10.0});
    h.observe(0.5);
    h.observe(5.0);
    h.observe(50.0);

    MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("c"), 5u);
    EXPECT_DOUBLE_EQ(snap.gauge("g"), 2.5);
    EXPECT_EQ(snap.counter("absent"), 0u);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].counts,
              (std::vector<uint64_t>{1, 1, 1}));
    EXPECT_EQ(snap.histograms[0].total, 3u);
    EXPECT_DOUBLE_EQ(snap.histograms[0].sum, 55.5);
    // Same name returns the same instrument.
    EXPECT_EQ(&reg.counter("c"), &reg.counter("c"));
}

TEST(Metrics, ConcurrentAddsAllLand)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("hits");
    Histogram &h = reg.histogram("obs", {10.0, 100.0});
    constexpr int kThreads = 8, kPerThread = 10000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                c.add();
                h.observe(static_cast<double>(t));
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(c.value(), uint64_t(kThreads) * kPerThread);
    EXPECT_EQ(h.total(), uint64_t(kThreads) * kPerThread);
    EXPECT_DOUBLE_EQ(h.sum(), 10000.0 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
}

TEST(Metrics, NullRegistryIsTolerated)
{
    EXPECT_EQ(maybeCounter(nullptr, "x"), nullptr);
    EXPECT_EQ(maybeGauge(nullptr, "x"), nullptr);
    EXPECT_EQ(maybeHistogram(nullptr, "x", {1.0}), nullptr);
    ObsContext obs;
    EXPECT_FALSE(obs.enabled());
}

TEST(Trace, EventsRoundTripThroughParser)
{
    TraceRecorder rec;
    rec.meta("run", {tstr("op", "gemm"), tint("seed", 7)});
    rec.begin("step", 1.5, {tint("trial", 0)});
    rec.point("eval", 2.25,
              {tstr("key", "1;2;3"), treal("gflops", 123.456),
               tbool("ok", true)});
    rec.end("step", 3.0);

    ASSERT_EQ(rec.eventCount(), 4u);
    auto lines = rec.lines();
    auto meta = parseTraceLine(lines[0]);
    ASSERT_TRUE(meta.has_value());
    EXPECT_EQ(meta->type, 'M');
    EXPECT_EQ(meta->str("op"), "gemm");
    EXPECT_EQ(meta->integer("seed"), 7);

    auto point = parseTraceLine(lines[2]);
    ASSERT_TRUE(point.has_value());
    EXPECT_EQ(point->index, 2u);
    EXPECT_EQ(point->type, 'P');
    EXPECT_EQ(point->name, "eval");
    EXPECT_DOUBLE_EQ(point->sim, 2.25);
    EXPECT_EQ(point->str("key"), "1;2;3");
    EXPECT_DOUBLE_EQ(point->real("gflops"), 123.456);
    EXPECT_EQ(point->str("ok"), "true");

    EXPECT_FALSE(parseTraceLine("not json").has_value());
}

TEST(Trace, AppendRenumbersSplicedEvents)
{
    TraceRecorder parent;
    parent.begin("outer", 0.0);
    TraceRecorder child;
    child.meta("run", {tstr("op", "gemm")});
    child.point("report", 1.5, {tint("trials", 3)});
    parent.append(child);
    parent.end("outer", 1.5);

    TraceRecorder direct;
    direct.begin("outer", 0.0);
    direct.meta("run", {tstr("op", "gemm")});
    direct.point("report", 1.5, {tint("trials", 3)});
    direct.end("outer", 1.5);
    EXPECT_EQ(parent.toJsonl(), direct.toJsonl());
    EXPECT_EQ(child.eventCount(), 2u); // the source is left as it was
}

TEST(Trace, DoubleFormattingRoundTrips)
{
    for (double v : {0.0, 1.0, 0.1, 123.456, 1e-9, 6.02e23, 257.0,
                     1.0 / 3.0}) {
        const std::string s = formatTraceDouble(v);
        EXPECT_DOUBLE_EQ(std::stod(s), v) << s;
    }
}

TEST(Trace, SameSeedRunsProduceByteIdenticalTimelines)
{
    Tensor out = obsGemm();
    Target target = Target::forGpu(v100());
    auto run = [&](TraceRecorder &rec) {
        TuneOptions options;
        options.explore.trials = 12;
        options.explore.warmupPoints = 8;
        options.explore.seed = 0xabc;
        options.explore.obs.trace = &rec;
        return tuneOp(out.op(), target, options);
    };
    TraceRecorder a, b;
    run(a);
    run(b);
    EXPECT_GT(a.eventCount(), 0u);
    EXPECT_EQ(a.toJsonl(), b.toJsonl());
}

TEST(Trace, ObservationDoesNotChangeResults)
{
    Tensor out = obsGemm();
    Target target = Target::forGpu(v100());
    auto run = [&](ObsContext obs) {
        ScheduleSpace space = buildSpace(out.op(), target);
        Evaluator eval(out.op(), space, target);
        ExploreOptions options;
        options.trials = 12;
        options.warmupPoints = 8;
        options.seed = 0xabc;
        options.obs = obs;
        return explore(Method::QMethod, eval, options);
    };
    TraceRecorder rec;
    MetricsRegistry reg;
    ObsContext on;
    on.trace = &rec;
    on.metrics = &reg;
    ExploreResult with = run(on);
    ExploreResult without = run(ObsContext{});

    // Bit-identical: observation is pure.
    EXPECT_EQ(with.bestPoint.key(), without.bestPoint.key());
    EXPECT_EQ(with.bestGflops, without.bestGflops);
    EXPECT_EQ(with.simSeconds, without.simSeconds);
    EXPECT_EQ(with.trialsUsed, without.trialsUsed);
    ASSERT_EQ(with.curve.size(), without.curve.size());
    for (size_t i = 0; i < with.curve.size(); ++i) {
        EXPECT_EQ(with.curve[i].first, without.curve[i].first);
        EXPECT_EQ(with.curve[i].second, without.curve[i].second);
    }
    // And the sinks did observe the run.
    EXPECT_GT(rec.eventCount(), 0u);
    EXPECT_EQ(reg.snapshot().counter("explore.evals"),
              uint64_t(with.trialsUsed));
}

TEST(TraceReport, FoldsPhasesAndCurve)
{
    Tensor out = obsGemm();
    Target target = Target::forGpu(v100());
    TraceRecorder rec;
    TuneOptions options;
    options.explore.trials = 12;
    options.explore.warmupPoints = 8;
    options.explore.seed = 0xabc;
    options.explore.obs.trace = &rec;
    TuneReport tuned = tuneOp(out.op(), target, options);

    std::vector<ParsedTraceEvent> events;
    for (const auto &line : rec.lines()) {
        auto e = parseTraceLine(line);
        ASSERT_TRUE(e.has_value()) << line;
        events.push_back(*e);
    }
    TraceReport report = foldTrace(events);
    EXPECT_EQ(report.op, "gemm");
    EXPECT_EQ(report.method, "Q-method");
    EXPECT_EQ(report.seed, 0xabcu);
    EXPECT_EQ(report.events, rec.eventCount());
    EXPECT_EQ(report.trials, tuned.trials);

    // The curve is the Fig. 7 series: monotone best-so-far, ending at
    // the tuned report's best value.
    ASSERT_FALSE(report.curve.empty());
    for (size_t i = 1; i < report.curve.size(); ++i)
        EXPECT_GE(report.curve[i].second, report.curve[i - 1].second);
    EXPECT_DOUBLE_EQ(report.curve.back().second, tuned.gflops);
    EXPECT_DOUBLE_EQ(report.bestGflops, tuned.gflops);

    // Expected phases appear with completed spans.
    auto phase = [&](const std::string &name) -> const PhaseBreakdown * {
        for (const auto &p : report.phases)
            if (p.name == name)
                return &p;
        return nullptr;
    };
    ASSERT_NE(phase("space_build"), nullptr);
    ASSERT_NE(phase("warmup"), nullptr);
    ASSERT_NE(phase("step"), nullptr);
    EXPECT_EQ(phase("step")->spans, 12u);
    EXPECT_GT(phase("warmup")->simSeconds, 0.0);

    // Rendering and JSON both mention the best value.
    EXPECT_NE(renderTraceReport(report).find("Fig. 7"), std::string::npos);
    EXPECT_NE(traceReportJson(report).find("\"curve\""),
              std::string::npos);
}

TEST(Trace, WallProfileAttributesSpaceBuild)
{
    // tuneOp and tuneFamily time buildSpace only under wallProfile: the
    // `space.build.ns` counter and the span's `ns` appear together, and
    // an unprofiled trace carries neither.
    Tensor out = obsGemm();
    const Target target = Target::forGpu(v100());
    ShapeVar batch;
    batch.name = "batch";
    batch.lo = 1;
    batch.hi = 8;
    const ShapeFamily family = gemmOverM(64, 64, batch);
    for (bool family_run : {false, true}) {
        for (bool profile : {false, true}) {
            TraceRecorder rec;
            MetricsRegistry metrics;
            ExploreOptions explore;
            explore.trials = 4;
            explore.warmupPoints = 2;
            explore.obs = {&rec, &metrics, profile};
            if (family_run) {
                FamilyTuneOptions options;
                options.method = Method::Random;
                options.explore = explore;
                tuneFamily(family, target, options);
            } else {
                TuneOptions options;
                options.method = Method::Random;
                options.explore = explore;
                tuneOp(out.op(), target, options);
            }
            bool counted = false;
            for (const auto &[name, value] : metrics.snapshot().counters) {
                if (name == "space.build.ns") {
                    counted = true;
                    EXPECT_GT(value, 0u);
                }
            }
            EXPECT_EQ(counted, profile) << "family=" << family_run;
            int ends = 0;
            for (const auto &line : rec.lines()) {
                auto e = parseTraceLine(line);
                ASSERT_TRUE(e.has_value()) << line;
                if (e->name != "space_build" || e->type != 'E')
                    continue;
                ++ends;
                EXPECT_TRUE(e->has("size") && e->has("directions"));
                EXPECT_EQ(e->has("ns"), profile) << line;
                if (profile) {
                    EXPECT_GT(e->integer("ns"), 0) << line;
                }
            }
            EXPECT_EQ(ends, 1) << "family=" << family_run;
        }
    }
}

TEST(Metrics, WallProfileAttributesAutoTvmFits)
{
    // Each AutoTVM round's GBT refit adds its wall time to
    // `autotvm.fit.ns` under wallProfile only; the fit count is kept
    // either way and the search itself does not change.
    Tensor out = obsGemm();
    const Target target = Target::forGpu(v100());
    std::string best[2];
    for (bool profile : {false, true}) {
        MetricsRegistry metrics;
        TuneOptions options;
        options.method = Method::AutoTvm;
        options.explore.trials = 16;
        options.explore.obs = {nullptr, &metrics, profile};
        best[profile] =
            serializeConfig(tuneOp(out.op(), target, options).config);
        const MetricsSnapshot snap = metrics.snapshot();
        EXPECT_GT(snap.counter("autotvm.model_fits"), 0u);
        bool counted = false;
        for (const auto &[name, value] : snap.counters) {
            if (name == "autotvm.fit.ns") {
                counted = true;
                EXPECT_GT(value, 0u);
            }
        }
        EXPECT_EQ(counted, profile);
    }
    EXPECT_EQ(best[0], best[1]);
}

TEST(Metrics, WallProfileTimesEveryMeasurementPath)
{
    // Under wallProfile each fresh scoring adds to eval.decode.ns,
    // eval.lower.ns and eval.verify.ns and bumps verify.checked once,
    // on every path that scores: single points (traced, so each also
    // becomes an eval.decode span), a pooled batch, faulted batches and
    // points, and a shape-family run.
    Tensor out = obsGemm();
    const Target target = Target::forGpu(v100());
    ScheduleSpace space = buildSpace(out.op(), target);
    Rng rng(5);
    std::vector<Point> points;
    for (int i = 0; i < 24; ++i)
        points.push_back(space.randomPoint(rng));

    FaultProfile profile;
    profile.transient = 0.5;
    profile.seed = 3;
    FaultInjector injector(profile);
    ResilienceOptions faulty;
    faulty.injector = &injector;
    ThreadPool pool(4);

    enum class Path { Single, Pooled, FaultedBatch, FaultedSingle };
    for (Path path : {Path::Single, Path::Pooled, Path::FaultedBatch,
                      Path::FaultedSingle}) {
        SCOPED_TRACE(static_cast<int>(path));
        const bool single =
            path == Path::Single || path == Path::FaultedSingle;
        const bool faults =
            path == Path::FaultedBatch || path == Path::FaultedSingle;
        TraceRecorder rec;
        MetricsRegistry metrics;
        Evaluator eval(out.op(), space, target);
        eval.setObs({path == Path::Single ? &rec : nullptr, &metrics, true});
        ResilientEvaluator reval(eval, single ? nullptr : &pool, 0,
                                 faults ? faulty : ResilienceOptions{});
        if (single) {
            for (const Point &p : points)
                reval.evaluate(p);
        } else {
            reval.evaluate(points);
        }

        const MetricsSnapshot snap = metrics.snapshot();
        const uint64_t fresh = static_cast<uint64_t>(eval.numTrials());
        ASSERT_GT(fresh, 1u);
        EXPECT_EQ(snap.counter("verify.checked"), fresh);
        EXPECT_GT(snap.counter("eval.decode.ns"), 0u);
        EXPECT_GT(snap.counter("eval.lower.ns"), 0u);
        EXPECT_GT(snap.counter("eval.verify.ns"), 0u);
        if (faults) {
            EXPECT_GT(reval.stats().failures, 0u);
        }
        uint64_t decode_spans = 0;
        for (const std::string &line : rec.lines()) {
            if (line.find("\"t\":\"E\",\"name\":\"eval.decode\"") !=
                std::string::npos)
                ++decode_spans;
        }
        EXPECT_EQ(decode_spans, path == Path::Single ? fresh : 0u);
    }

    // A family run decodes each point once and lowers and verifies it
    // once per sampled instance, into the same counters.
    ShapeVar batch;
    batch.name = "batch";
    batch.lo = 1;
    batch.hi = 16;
    MetricsRegistry metrics;
    FamilyTuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 6;
    options.explore.obs = {nullptr, &metrics, true};
    tuneFamily(gemmOverM(64, 64, batch), target, options);
    const MetricsSnapshot snap = metrics.snapshot();
    EXPECT_GT(snap.counter("explore.evals"), 0u);
    EXPECT_GT(snap.counter("verify.checked"), snap.counter("explore.evals"));
    EXPECT_GT(snap.counter("eval.decode.ns"), 0u);
    EXPECT_GT(snap.counter("eval.lower.ns"), 0u);
    EXPECT_GT(snap.counter("eval.verify.ns"), 0u);

    // Every wall counter advances under wallProfile on a Q, AutoTVM,
    // family or DAG run that reaches its stage, and none exists without.
    Network net;
    net.name = "dense";
    net.inputShape = {1, 16, 2, 2};
    LayerSpec fc;
    fc.kind = LayerSpec::Kind::Dense;
    fc.name = "fc";
    fc.units = 32;
    net.layers.push_back(fc);
    const graph::ComputeDag dag = graph::dagFromNetwork(net);
    const std::vector<std::pair<std::string, std::vector<const char *>>>
        runs = {
            {"q", {"eval.decode.ns", "eval.lower.ns", "eval.verify.ns",
                   "q.init.ns", "q.forward_batch.ns", "q.train.ns",
                   "space.build.ns"}},
            {"autotvm", {"autotvm.fit.ns", "space.build.ns"}},
            {"family", {"eval.decode.ns", "eval.lower.ns",
                        "eval.verify.ns", "space.build.ns"}},
            {"dag", {"graph.partition.ns", "graph.search.ns",
                     "eval.decode.ns", "space.build.ns"}},
        };
    for (bool profile : {false, true}) {
        for (const auto &[kind, counters] : runs) {
            SCOPED_TRACE(kind + (profile ? " profiled" : " unprofiled"));
            MetricsRegistry registry;
            ExploreOptions explore;
            explore.trials = 12;
            explore.warmupPoints = 4;
            explore.trainEvery = 2;
            explore.obs = {nullptr, &registry, profile};
            TuneOptions tune_options;
            tune_options.explore = explore;
            if (kind == "q") {
                tuneOp(out.op(), target, tune_options);
            } else if (kind == "autotvm") {
                tune_options.method = Method::AutoTvm;
                tuneOp(out.op(), target, tune_options);
            } else if (kind == "family") {
                FamilyTuneOptions family_options;
                family_options.method = Method::Random;
                family_options.explore = explore;
                tuneFamily(gemmOverM(64, 64, batch), target, family_options);
            } else {
                graph::tuneDag(dag, target, tune_options);
            }
            const MetricsSnapshot run_snap = registry.snapshot();
            for (const char *name : counters) {
                if (profile) {
                    EXPECT_GT(run_snap.counter(name), 0u) << name;
                }
            }
            if (!profile) {
                for (const auto &[name, value] : run_snap.counters) {
                    EXPECT_FALSE(name.size() > 3 &&
                                 name.compare(name.size() - 3, 3, ".ns") == 0)
                        << name;
                }
            }
        }
    }
}

TEST(TraceReport, JsonOmitsEmptySections)
{
    // Schema contract: a pure exploration trace (no admission control,
    // no graph scheduling, no verifier rejects, no cost model) must not
    // emit those keys at all — consumers key off presence, not
    // zero-filled placeholder objects.
    Tensor out = obsGemm();
    Target target = Target::forGpu(v100());
    TraceRecorder rec;
    TuneOptions options;
    options.explore.trials = 8;
    options.explore.warmupPoints = 4;
    options.explore.seed = 0xabc;
    options.explore.obs.trace = &rec;
    tuneOp(out.op(), target, options);

    std::vector<ParsedTraceEvent> events;
    for (const auto &line : rec.lines()) {
        auto e = parseTraceLine(line);
        ASSERT_TRUE(e.has_value()) << line;
        events.push_back(*e);
    }
    const std::string json = traceReportJson(foldTrace(events));
    EXPECT_EQ(json.find("\"serve\""), std::string::npos);
    EXPECT_EQ(json.find("\"graph\""), std::string::npos);
    EXPECT_EQ(json.find("\"verifyRejects\""), std::string::npos);
    EXPECT_EQ(json.find("\"costmodel\""), std::string::npos);
    EXPECT_EQ(json.find("\"certificates\""), std::string::npos);
    // The always-on keys are still there.
    EXPECT_NE(json.find("\"phases\""), std::string::npos);
    EXPECT_NE(json.find("\"curve\""), std::string::npos);
}

TEST(TraceReport, FoldsCertificateEvents)
{
    // A certified tuning run emits one "certificate" trace point for
    // the winning schedule; the report folds it into a verdict tally
    // plus a per-op entry in text and JSON.
    Tensor out = obsGemm();
    Target target = Target::forGpu(v100());
    TraceRecorder rec;
    TuneOptions options;
    options.explore.trials = 8;
    options.explore.warmupPoints = 4;
    options.explore.seed = 0xabc;
    options.explore.obs.trace = &rec;
    options.certify = true;
    TuneReport tune = tuneOp(out.op(), target, options);
    ASSERT_NE(tune.certificate, nullptr);

    std::vector<ParsedTraceEvent> events;
    for (const auto &line : rec.lines()) {
        auto e = parseTraceLine(line);
        ASSERT_TRUE(e.has_value()) << line;
        events.push_back(*e);
    }
    TraceReport report = foldTrace(events);
    ASSERT_TRUE(report.certificates.any());
    EXPECT_EQ(report.certificates.proven, 1u);
    EXPECT_EQ(report.certificates.refuted, 0u);
    ASSERT_EQ(report.certificates.entries.size(), 1u);
    EXPECT_EQ(report.certificates.entries[0].verdict, "proven");
    EXPECT_GT(report.certificates.entries[0].obligations, 0);
    EXPECT_NE(renderTraceReport(report).find("legality certificates"),
              std::string::npos);
    EXPECT_NE(traceReportJson(report).find("\"certificates\""),
              std::string::npos);
}

TEST(TraceReport, FoldsCostModelEvents)
{
    // A cost-model-assisted run emits warm-start and prune events; the
    // report folds them into the costmodel section of text and JSON.
    Tensor out = obsGemm();
    Target target = Target::forGpu(v100());

    CostModelOptions model_options;
    model_options.syncRefit = true;
    model_options.refitEvery = 16;
    CostModel model(model_options);

    TuneOptions train;
    train.explore.trials = 12;
    train.explore.warmupPoints = 6;
    train.explore.seed = 0xabc;
    train.explore.costModel = &model;
    tuneOp(out.op(), target, train);
    ASSERT_TRUE(model.ready());

    TraceRecorder rec;
    TuneOptions assisted = train;
    assisted.explore.prunerKeep = 0.5;
    assisted.explore.obs.trace = &rec;
    tuneOp(out.op(), target, assisted);

    std::vector<ParsedTraceEvent> events;
    for (const auto &line : rec.lines()) {
        auto e = parseTraceLine(line);
        ASSERT_TRUE(e.has_value()) << line;
        events.push_back(*e);
    }
    TraceReport report = foldTrace(events);
    ASSERT_TRUE(report.costModel.any());
    EXPECT_EQ(report.costModel.warmStarts, 1u);
    EXPECT_GT(report.costModel.pruneEvents, 0u);
    EXPECT_GT(report.costModel.kept, 0u);
    EXPECT_NE(renderTraceReport(report).find("learned cost model"),
              std::string::npos);
    EXPECT_NE(traceReportJson(report).find("\"costmodel\""),
              std::string::npos);
}

TEST(ServiceMetrics, StatsComeFromOneSnapshot)
{
    ServiceOptions service_options;
    service_options.evalThreads = 2;
    service_options.requestThreads = 2;
    TuningService service(service_options);

    Tensor out = obsGemm();
    Target target = Target::forGpu(v100());
    TuneOptions options;
    options.explore.trials = 8;
    options.explore.warmupPoints = 6;
    service.tune(out, target, options);
    service.tune(out, target, options); // LRU hit

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.tuningRuns, 1u);
    EXPECT_EQ(stats.resultCacheHits, 1u);
    // The scalar fields mirror the registry snapshot they were read
    // from; the per-method mix rides along in the same snapshot.
    EXPECT_EQ(stats.metrics.counter("service.requests"), stats.requests);
    EXPECT_EQ(stats.metrics.counter("service.method.Q-method"), 2u);
    // Exploration metrics aggregate into the service registry.
    EXPECT_EQ(stats.metrics.counter("tuner.runs"), 1u);
    EXPECT_GT(stats.metrics.counter("explore.evals"), 0u);
    EXPECT_EQ(stats.evaluations,
              stats.metrics.counter("service.evaluations"));
}

} // namespace
} // namespace ft
