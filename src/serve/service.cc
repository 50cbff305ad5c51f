#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>

#include "analysis/static_analyzer.h"
#include "support/logging.h"

namespace ft {

TuningService::TuningService(const ServiceOptions &options)
    : options_(options),
      evalPool_(options.evalThreads),
      requestPool_(options.requestThreads),
      requests_(metrics_.counter("service.requests")),
      resultCacheHits_(metrics_.counter("service.result_cache_hits")),
      persistentCacheHits_(
          metrics_.counter("service.persistent_cache_hits")),
      coalescedJoins_(metrics_.counter("service.coalesced_joins")),
      tuningRuns_(metrics_.counter("service.tuning_runs")),
      evaluations_(metrics_.counter("service.evaluations")),
      failures_(metrics_.counter("service.failures")),
      retries_(metrics_.counter("service.retries")),
      timeouts_(metrics_.counter("service.timeouts")),
      quarantined_(metrics_.counter("service.quarantined")),
      degradedReports_(metrics_.counter("service.degraded_reports")),
      familyRequests_(metrics_.counter("service.family_requests")),
      dispatchHits_(metrics_.counter("service.dispatch_hits")),
      brownoutServed_(metrics_.counter("service.brownout_served")),
      graphRequests_(metrics_.counter("service.graph_requests")),
      graphCacheHits_(metrics_.counter("service.graph_cache_hits")),
      reports_(options.resultCacheCapacity, &resultCacheHits_,
               coalescedJoins_, tuningRuns_),
      families_(0, nullptr, coalescedJoins_, tuningRuns_),
      dags_(std::numeric_limits<size_t>::max(), &graphCacheHits_,
            coalescedJoins_, tuningRuns_)
{
    if (!options_.clock) {
        options_.clock = [] {
            return std::chrono::duration<double>(
                       std::chrono::steady_clock::now()
                           .time_since_epoch())
                .count();
        };
    }
    AdmissionOptions admission = options_.admission;
    if (admission.workers <= 0)
        admission.workers = std::max(1, options_.requestThreads);
    if (!admission.metrics)
        admission.metrics = &metrics_;
    admission_ = std::make_unique<AdmissionController>(admission);
    if (options_.enableCostModel) {
        costModel_ = std::make_unique<CostModel>(options_.costModel);
        if (!options_.costModel.persistPath.empty())
            costModel_->load(); // a missing/fresh journal is fine
        if (!options_.costModel.syncRefit)
            costModel_->startBackgroundRefit();
    }
    if (!options_.dispatchDir.empty())
        reloadDispatchTables();
}

TuningService::~TuningService()
{
    // Queued submit()s run while requestPool_ drains, and use members
    // declared after it, which are destroyed first.
    requestPool_.wait();
}

void
TuningService::prepare(ExploreOptions &explore)
{
    explore.evalPool = &evalPool_;
    // One shared model across every request: each run's trials train
    // it, later runs warm-start from the earlier ones.
    if (costModel_ && !explore.costModel)
        explore.costModel = costModel_.get();
    // Traces stay per-request: a shared timeline would interleave
    // concurrent runs.
    if (!explore.obs.metrics)
        explore.obs.metrics = &metrics_;
}

void
TuningService::prepare(TuneOptions &options)
{
    if (!options.cache)
        options.cache = options_.persistentCache;
    prepare(options.explore);
}

TuneReport
TuningService::tuneAnchor(const Operation &anchor, const Target &target,
                          TuneOptions options)
{
    prepare(options);
    requests_.add();
    metrics_.counter("service.method." + methodName(options.method)).add();
    bool cached = false;
    TuneReport report = reports_.joinOrRun(
        RequestKey::op(anchor, target, options),
        [&] {
            TuneReport fresh = ft::tuneOp(anchor, target, options);
            evaluations_.add(static_cast<uint64_t>(fresh.trials));
            failures_.add(fresh.failures);
            retries_.add(fresh.retries);
            timeouts_.add(fresh.timeouts);
            quarantined_.add(fresh.quarantined);
            if (fresh.degraded)
                degradedReports_.add();
            if (fresh.fromCache)
                persistentCacheHits_.add();
            return fresh;
        },
        &cached);
    if (cached)
        report.fromCache = true;
    return report;
}

TuneReport
TuningService::tune(const Tensor &output, const Target &target,
                    TuneOptions options)
{
    MiniGraph graph(output);
    return tuneAnchor(anchorOp(graph), target, std::move(options));
}

std::future<TuneReport>
TuningService::submit(const Tensor &output, const Target &target,
                      TuneOptions options)
{
    auto task = std::make_shared<std::packaged_task<TuneReport()>>(
        [this, output, target, options = std::move(options)]() mutable {
            return tune(output, target, std::move(options));
        });
    std::future<TuneReport> future = task->get_future();
    requestPool_.submit([task] { (*task)(); });
    return future;
}

FamilyTuneReport
TuningService::runFamily(const ShapeFamily &family, const Target &target,
                         FamilyTuneOptions options)
{
    prepare(options.explore);
    return families_.joinOrRun(
        RequestKey::family(family, target, options), [&] {
            FamilyTuneReport report = ft::tuneFamily(family, target, options);
            evaluations_.add(static_cast<uint64_t>(report.totalTrials));
            if (report.table.total())
                publishDispatchTable(family.name, report.table);
            return report;
        });
}

graph::DagTuneReport
TuningService::tuneDag(const graph::ComputeDag &dag, const Target &target,
                       TuneOptions options)
{
    graphRequests_.add();
    prepare(options);
    return dags_.joinOrRun(RequestKey::dag(dag, target, options), [&] {
        graph::DagTuneReport report = graph::tuneDag(dag, target, options);
        for (const auto &sub : report.groups) {
            if (!sub.tuned)
                continue;
            evaluations_.add(static_cast<uint64_t>(sub.report.trials));
            // A repeated anchor reuses its group's report; only a
            // search of its own can hit the persistent cache.
            if (sub.report.fromCache && sub.reusedFrom < 0)
                persistentCacheHits_.add();
        }
        return report;
    });
}

namespace {

/** Filesystem-safe name for a (family, device) dispatch slot. */
std::string
dispatchFileName(const std::string &familyName, const std::string &device)
{
    std::string name = familyName + "@" + device;
    for (char &c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                        c == '@' || c == '.';
        if (!ok)
            c = '_';
    }
    return name + ".dispatch";
}

/** Serve `shape` from its dispatch entry, re-fitting the dynamic split. */
FamilyServeResult
serveFrom(const DispatchEntry &entry, const ShapeFamily &family,
          int64_t shape, bool fromDispatch)
{
    FamilyServeResult out;
    out.config = entry.config;
    adaptSplitToExtent(out.config, family.dynamicAxis, shape);
    out.gflops = entry.gflops;
    out.bucket = {entry.lo, entry.hi};
    out.fromDispatch = fromDispatch;
    return out;
}

} // namespace

void
TuningService::publishDispatchTable(const std::string &familyName,
                                    const DispatchTable &table)
{
    const std::string &device = table.device();
    {
        MutexLock lock(mu_);
        dispatch_.insert_or_assign(RequestKey::dispatch(familyName, device),
                                   table);
    }
    if (options_.dispatchDir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(options_.dispatchDir, ec);
    const std::string path =
        (std::filesystem::path(options_.dispatchDir) /
         dispatchFileName(familyName, device))
            .string();
    if (!table.saveToFile(path))
        warn("could not persist dispatch table to ", path);
}

void
TuningService::reloadDispatchTables()
{
    std::error_code ec;
    std::filesystem::directory_iterator dir(options_.dispatchDir, ec);
    if (ec)
        return; // no directory yet: nothing published before
    size_t loaded = 0;
    for (const auto &entry : dir) {
        if (!entry.is_regular_file(ec) ||
            entry.path().extension() != ".dispatch")
            continue;
        auto table = DispatchTable::loadFromFile(entry.path().string());
        if (!table) {
            warn("skipping unreadable dispatch table ",
                 entry.path().string());
            continue;
        }
        MutexLock lock(mu_);
        dispatch_.insert_or_assign(
            RequestKey::dispatch(table->familyName(), table->device()),
            std::move(*table));
        ++loaded;
    }
    if (loaded)
        metrics_.counter("service.dispatch_reloaded")
            .add(static_cast<uint64_t>(loaded));
}

FamilyTuneReport
TuningService::tuneFamily(const ShapeFamily &family, const Target &target,
                          FamilyTuneOptions options)
{
    familyRequests_.add();
    return runFamily(family, target, std::move(options));
}

std::optional<FamilyServeResult>
TuningService::fromDispatch(const ShapeFamily &family, int64_t shape,
                            const Target &target)
{
    const RequestKey slot =
        RequestKey::dispatch(family.name, target.deviceName());
    MutexLock lock(mu_);
    auto it = dispatch_.find(slot);
    if (it == dispatch_.end())
        return std::nullopt;
    // Tables hold valid entries only; a shape no entry covers (its
    // bucket failed, or was dropped on load) is not answered here.
    const DispatchEntry *entry = it->second.find(shape);
    if (!entry)
        return std::nullopt;
    dispatchHits_.add();
    return serveFrom(*entry, family, shape, true);
}

FamilyServeResult
TuningService::serveShape(const ShapeFamily &family, int64_t shape,
                          const Target &target, FamilyTuneOptions options)
{
    FT_ASSERT(family.var.contains(shape), "shape ", shape,
              " outside the declared range of family ", family.name);
    familyRequests_.add();
    if (auto served = fromDispatch(family, shape, target))
        return *served;
    // No table yet: tune the family (coalescing with concurrent
    // requests), then serve from the fresh table.
    FamilyTuneReport report = runFamily(family, target, std::move(options));
    return serveFrom(report.table.lookup(shape), family, shape, false);
}

void
TuningService::propagateBudget(ExploreOptions &explore,
                               double budgetSeconds) const
{
    if (options_.simBudgetPerSecond <= 0.0 ||
        !std::isfinite(budgetSeconds))
        return;
    const double simBudget =
        std::max(0.0, budgetSeconds) * options_.simBudgetPerSecond;
    // The run-level simulated deadline: never extend one the caller
    // already set, only tighten.
    if (explore.deadlineSimSeconds <= 0.0 ||
        explore.deadlineSimSeconds > simBudget)
        explore.deadlineSimSeconds = simBudget;
    // No single trial may consume the whole remaining budget either.
    if (explore.resilience.trialDeadlineSeconds > simBudget)
        explore.resilience.trialDeadlineSeconds = simBudget;
}

std::future<AdmittedReport>
TuningService::admitAnchor(const Operation &anchor, const Target &target,
                           TuneOptions options, RequestOptions request,
                           bool onRequestPool)
{
    // The admission decision happens here, synchronously: a shed
    // request is refused before it ever occupies a request-pool slot.
    const std::string opKey = tuningKeyFor(anchor, target.deviceName());
    const double now = options_.clock();
    const AdmissionDecision decision = admission_->admit(
        opKey, request.priority, now, now + request.deadlineSeconds);

    if (decision.outcome != AdmissionOutcome::Admitted) {
        AdmittedReport out;
        out.outcome = decision.outcome;
        out.reason = decision.reason;
        if (decision.outcome == AdmissionOutcome::Brownout) {
            // Degraded mode: only a valid report in the LRU cache may
            // answer — never start fresh tuning work while saturated.
            prepare(options);
            out.report =
                reports_.cached(RequestKey::op(anchor, target, options));
            if (out.report && !out.report->valid)
                out.report.reset();
            if (out.report) {
                brownoutServed_.add();
                out.report->fromCache = true;
                out.degradedAnswer = true;
                out.reason.clear();
            }
        }
        std::promise<AdmittedReport> ready;
        ready.set_value(std::move(out));
        return ready.get_future();
    }

    propagateBudget(options.explore, decision.budgetSeconds);
    auto task = std::make_shared<std::packaged_task<AdmittedReport()>>(
        [this, anchor, target, opKey, ticket = decision.ticket,
         options = std::move(options)]() mutable {
            AdmittedReport out;
            out.outcome = AdmissionOutcome::Admitted;
            bool success = false;
            try {
                out.report = tuneAnchor(anchor, target, std::move(options));
                success = out.report->valid;
            } catch (...) {
                admission_->onComplete(opKey, ticket, options_.clock(),
                                       false);
                throw;
            }
            admission_->onComplete(opKey, ticket, options_.clock(),
                                   success);
            if (!success) {
                out.outcome = AdmissionOutcome::Shed;
                out.reason = "code=FT-ADM-RUN-FAILED why=\"tuning run "
                             "produced no valid schedule\"";
                out.report.reset();
            }
            return out;
        });
    std::future<AdmittedReport> future = task->get_future();
    if (onRequestPool)
        requestPool_.submit([task] { (*task)(); });
    else
        (*task)();
    return future;
}

AdmittedReport
TuningService::tuneAnchorAdmitted(const Operation &anchor,
                                  const Target &target, TuneOptions options,
                                  RequestOptions request)
{
    return admitAnchor(anchor, target, std::move(options), request, false)
        .get();
}

AdmittedReport
TuningService::tuneAdmitted(const Tensor &output, const Target &target,
                            TuneOptions options, RequestOptions request)
{
    MiniGraph graph(output);
    return tuneAnchorAdmitted(anchorOp(graph), target, std::move(options),
                              request);
}

std::future<AdmittedReport>
TuningService::submitAdmitted(const Tensor &output, const Target &target,
                              TuneOptions options, RequestOptions request)
{
    MiniGraph graph(output);
    return admitAnchor(anchorOp(graph), target, std::move(options), request,
                       true);
}

AdmittedServeResult
TuningService::serveShapeAdmitted(const ShapeFamily &family, int64_t shape,
                                  const Target &target,
                                  FamilyTuneOptions options,
                                  RequestOptions request)
{
    const std::string opKey = family.name + "@" + target.deviceName();
    const double now = options_.clock();
    const AdmissionDecision decision = admission_->admit(
        opKey, request.priority, now, now + request.deadlineSeconds);

    AdmittedServeResult out;
    out.outcome = decision.outcome;
    out.reason = decision.reason;
    // A published dispatch table answers a lookup without tuning — in
    // brownout it is the *only* permitted answer; on an admitted
    // request it is simply the fast path.
    switch (decision.outcome) {
      case AdmissionOutcome::Shed:
      case AdmissionOutcome::BreakerOpen:
        return out;
      case AdmissionOutcome::Brownout:
        familyRequests_.add();
        out.result = fromDispatch(family, shape, target);
        if (out.result) {
            brownoutServed_.add();
            out.degradedAnswer = true;
            out.reason.clear();
        }
        return out;
      case AdmissionOutcome::Admitted:
        break;
    }

    familyRequests_.add();
    out.reason.clear();
    out.result = fromDispatch(family, shape, target);
    if (!out.result) {
        propagateBudget(options.explore, decision.budgetSeconds);
        try {
            FamilyTuneReport report =
                runFamily(family, target, std::move(options));
            out.result =
                serveFrom(report.table.lookup(shape), family, shape, false);
        } catch (...) {
            admission_->onComplete(opKey, decision.ticket, options_.clock(),
                                   false);
            throw;
        }
    }
    admission_->onComplete(opKey, decision.ticket, options_.clock(), true);
    return out;
}

std::optional<DispatchTable>
TuningService::dispatchTableFor(const std::string &familyName,
                                const std::string &device) const
{
    MutexLock lock(mu_);
    auto it = dispatch_.find(RequestKey::dispatch(familyName, device));
    if (it == dispatch_.end())
        return std::nullopt;
    return it->second;
}

ServiceStats
TuningService::stats() const
{
    ServiceStats out;
    out.evalQueueDepth = evalPool_.queueDepth();
    // One registry snapshot feeds every counter field: no torn reads,
    // no counter observed mid-update while runs complete concurrently.
    out.metrics = metrics_.snapshot();
    out.requests = out.metrics.counter("service.requests");
    out.resultCacheHits = out.metrics.counter("service.result_cache_hits");
    out.persistentCacheHits =
        out.metrics.counter("service.persistent_cache_hits");
    out.coalescedJoins = out.metrics.counter("service.coalesced_joins");
    out.tuningRuns = out.metrics.counter("service.tuning_runs");
    out.evaluations = out.metrics.counter("service.evaluations");
    out.failures = out.metrics.counter("service.failures");
    out.retries = out.metrics.counter("service.retries");
    out.timeouts = out.metrics.counter("service.timeouts");
    out.quarantined = out.metrics.counter("service.quarantined");
    out.degradedReports = out.metrics.counter("service.degraded_reports");
    out.familyRequests = out.metrics.counter("service.family_requests");
    out.dispatchHits = out.metrics.counter("service.dispatch_hits");
    out.brownoutServed = out.metrics.counter("service.brownout_served");
    out.graphRequests = out.metrics.counter("service.graph_requests");
    out.graphCacheHits = out.metrics.counter("service.graph_cache_hits");
    out.admission = admission_->stats();
    if (costModel_) {
        out.costModelTrials = costModel_->numTrials();
        out.costModelRefits = costModel_->refits();
        out.costModelReady = costModel_->ready();
    }
    out.inflight =
        reports_.inflight() + families_.inflight() + dags_.inflight();
    out.resultCacheSize = reports_.size();
    MutexLock lock(mu_);
    out.dispatchTables = dispatch_.size();
    return out;
}

} // namespace ft
