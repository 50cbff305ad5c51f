#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "analysis/static_analyzer.h"
#include "support/logging.h"

namespace ft {

namespace {

/**
 * FNV-1a request fingerprinting. Same constants as Point::key64(); the
 * collision-checked identity string behind each slot makes an unlucky
 * 64-bit collision a cache miss, never a wrong answer.
 */
constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void
fnvU64(uint64_t &h, uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (b * 8)) & 0xffu;
        h *= kFnvPrime;
    }
}

void
fnvStr(uint64_t &h, const std::string &s)
{
    fnvU64(h, s.size());
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= kFnvPrime;
    }
}

void
fnvReal(uint64_t &h, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    fnvU64(h, bits);
}

} // namespace

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
      graphCacheHits_(metrics_.counter("service.graph_cache_hits"))
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

uint64_t
TuningService::requestFingerprint(const Operation &anchor,
                                  const Target &target,
                                  const TuneOptions &options)
{
    FT_ASSERT(!anchor->isPlaceholder(), "request fingerprint of placeholder");
    const ExploreOptions &e = options.explore;
    uint64_t h = kFnvOffset;
    // Operator + device: the anchor's structural OpKey covers its input
    // shapes, strides and index expressions, and no names.
    fnvU64(h, anchor->key());
    fnvStr(h, target.deviceName());
    // The options that shape the result.
    fnvU64(h, static_cast<uint64_t>(options.method));
    fnvU64(h, static_cast<uint64_t>(e.trials));
    fnvU64(h, static_cast<uint64_t>(e.startingPoints));
    fnvU64(h, static_cast<uint64_t>(e.warmupPoints));
    fnvU64(h, e.seed);
    fnvReal(h, e.targetGflops);
    fnvU64(h, options.templateRestricted ? 1 : 0);
    fnvReal(h, e.deadlineSimSeconds);
    fnvStr(h, e.checkpointPath);
    // A cost-model-guided run (warm-start and/or pruning) draws a
    // different schedule than a model-off run with the same options, so
    // neither the LRU nor coalescing may conflate the two.
    fnvU64(h, e.costModel != nullptr ? 1 : 0);
    fnvReal(h, e.prunerKeep);
    fnvU64(h, e.seedPoints.size());
    for (const Point &p : e.seedPoints)
        fnvU64(h, p.key64());
    const ResilienceOptions &r = e.resilience;
    if (r.injector && r.injector->profile().enabled()) {
        fnvStr(h, r.injector->profile().fingerprint());
        fnvU64(h, static_cast<uint64_t>(r.maxRetries));
        fnvReal(h, r.backoffBaseSeconds);
        fnvReal(h, r.trialDeadlineSeconds);
        fnvU64(h, static_cast<uint64_t>(r.repeats));
    }
    return h;
}

std::string
TuningService::requestIdentity(const Operation &anchor, const Target &target,
                               const TuneOptions &options)
{
    std::ostringstream oss;
    const ExploreOptions &e = options.explore;
    oss << "op=" << std::hex << anchor->key() << std::dec << "@"
        << target.deviceName() << "#"
        << methodName(options.method)
        << "|trials=" << e.trials
        << "|starts=" << e.startingPoints
        << "|warmup=" << e.warmupPoints
        << "|seed=" << e.seed
        << "|target=" << e.targetGflops
        << "|tmpl=" << options.templateRestricted
        << "|deadline=" << e.deadlineSimSeconds
        << "|ckpt=" << e.checkpointPath
        << "|cm=" << (e.costModel != nullptr)
        << "|prune=" << e.prunerKeep;
    if (!e.seedPoints.empty()) {
        // Seeded starts steer the search, so two requests differing only
        // in their seed points must not coalesce; the 64-bit point keys
        // are a compact stand-in for the coordinate lists.
        oss << "|seeds=" << std::hex;
        for (const Point &p : e.seedPoints)
            oss << p.key64() << ",";
        oss << std::dec;
    }
    // The fault profile and retry policy shape the result; they are part
    // of the request identity.
    const ResilienceOptions &r = e.resilience;
    if (r.injector && r.injector->profile().enabled()) {
        oss << "|faults=" << r.injector->profile().fingerprint()
            << "|retries=" << r.maxRetries
            << "|backoff=" << r.backoffBaseSeconds
            << "|tdl=" << r.trialDeadlineSeconds
            << "|rep=" << r.repeats;
    }
    return oss.str();
}

uint64_t
TuningService::familyFingerprint(const ShapeFamily &family,
                                 const Target &target,
                                 const FamilyTuneOptions &options)
{
    const ExploreOptions &e = options.explore;
    uint64_t h = kFnvOffset;
    fnvStr(h, family.name);
    fnvU64(h, static_cast<uint64_t>(family.var.lo));
    fnvU64(h, static_cast<uint64_t>(family.var.hi));
    fnvU64(h, static_cast<uint64_t>(family.var.bucketing));
    fnvU64(h, static_cast<uint64_t>(family.var.bucketWidth));
    fnvU64(h, static_cast<uint64_t>(family.dynamicAxis));
    fnvStr(h, target.deviceName());
    fnvU64(h, static_cast<uint64_t>(options.method));
    fnvU64(h, static_cast<uint64_t>(options.samplesPerBucket));
    fnvU64(h, static_cast<uint64_t>(e.trials));
    fnvU64(h, static_cast<uint64_t>(e.startingPoints));
    fnvU64(h, static_cast<uint64_t>(e.warmupPoints));
    fnvU64(h, e.seed);
    fnvReal(h, e.targetGflops);
    fnvReal(h, e.deadlineSimSeconds);
    fnvU64(h, options.space.templateRestricted ? 1 : 0);
    fnvU64(h, options.space.pow2Splits ? 1 : 0);
    fnvU64(h, options.space.exploreReorderUnroll ? 1 : 0);
    fnvU64(h, options.space.exploreCacheAt ? 1 : 0);
    fnvU64(h, e.costModel != nullptr ? 1 : 0);
    fnvReal(h, e.prunerKeep);
    return h;
}

std::string
TuningService::familyIdentity(const ShapeFamily &family, const Target &target,
                              const FamilyTuneOptions &options)
{
    std::ostringstream oss;
    const ExploreOptions &e = options.explore;
    oss << family.name << "[" << family.var.lo << "," << family.var.hi
        << ",b" << static_cast<int>(family.var.bucketing) << ","
        << family.var.bucketWidth << ",ax" << family.dynamicAxis << "]@"
        << target.deviceName() << "#" << methodName(options.method)
        << "|k=" << options.samplesPerBucket
        << "|trials=" << e.trials
        << "|starts=" << e.startingPoints
        << "|warmup=" << e.warmupPoints
        << "|seed=" << e.seed
        << "|target=" << e.targetGflops
        << "|deadline=" << e.deadlineSimSeconds
        << "|tmpl=" << options.space.templateRestricted
        << "|pow2=" << options.space.pow2Splits
        << "|ru=" << options.space.exploreReorderUnroll
        << "|ca=" << options.space.exploreCacheAt
        << "|cm=" << (e.costModel != nullptr)
        << "|prune=" << e.prunerKeep;
    return oss.str();
}

uint64_t
TuningService::dispatchFingerprint(const std::string &familyName,
                                   const std::string &device)
{
    uint64_t h = kFnvOffset;
    fnvStr(h, familyName);
    fnvStr(h, device);
    return h;
}

std::string
TuningService::dispatchIdentity(const std::string &familyName,
                                const std::string &device)
{
    return familyName + "@" + device;
}

const TuneReport *
TuningService::lruGet(uint64_t key, const std::string &identity)
{
    auto it = lruIndex_.find(key);
    if (it == lruIndex_.end())
        return nullptr;
    if (it->second->identity != identity)
        return nullptr; // fingerprint collision: a miss, never a wrong hit
    lru_.splice(lru_.begin(), lru_, it->second);
    return &lru_.front().report;
}

void
TuningService::lruPut(uint64_t key, const std::string &identity,
                      const TuneReport &report)
{
    auto it = lruIndex_.find(key);
    if (it != lruIndex_.end()) {
        if (it->second->identity != identity)
            return; // collision: leave the resident entry alone
        lru_.splice(lru_.begin(), lru_, it->second);
        lru_.front().report = report;
        return;
    }
    lru_.emplace_front(CachedReport{key, identity, report});
    lruIndex_[key] = lru_.begin();
    while (lru_.size() > options_.resultCacheCapacity) {
        lruIndex_.erase(lru_.back().key);
        lru_.pop_back();
    }
}

TuneReport
TuningService::tuneAnchor(const Operation &anchor, const Target &target,
                          TuneOptions options)
{
    // Inject the service's cost model before fingerprinting so the
    // model-on bit is part of the request key.
    if (costModel_ && !options.explore.costModel)
        options.explore.costModel = costModel_.get();
    const uint64_t key = requestFingerprint(anchor, target, options);
    requests_.add();
    metrics_.counter("service.method." + methodName(options.method)).add();
    // The identity string is materialized only when a fingerprint slot
    // is actually hit (collision check) or a run is registered — the
    // pure-miss probe and the fingerprint itself never assemble strings.
    std::string identity;
    auto identityOf = [&]() -> const std::string & {
        if (identity.empty())
            identity = requestIdentity(anchor, target, options);
        return identity;
    };
    std::promise<TuneReport> promise;
    std::shared_future<TuneReport> shared;
    bool owner = false;
    bool registered = false;
    {
        MutexLock lock(mu_);
        if (lruIndex_.count(key)) {
            if (const TuneReport *hit = lruGet(key, identityOf())) {
                resultCacheHits_.add();
                TuneReport report = *hit;
                report.fromCache = true;
                return report;
            }
        }
        auto it = inflight_.find(key);
        if (it != inflight_.end() && it->second.identity == identityOf()) {
            coalescedJoins_.add();
            shared = it->second.future;
        } else {
            tuningRuns_.add();
            owner = true;
            shared = promise.get_future().share();
            if (it == inflight_.end()) {
                inflight_.emplace(key,
                                  InflightRun{identityOf(), shared});
                registered = true;
            }
            // else: fingerprint collision with a different in-flight
            // request — run standalone without coalescing.
        }
    }
    if (!owner) {
        // A joiner: the owner's in-flight run produces the report.
        return shared.get();
    }

    // This thread owns the run: route measurement through the shared
    // evaluation pool and the persistent cache through the tuner.
    if (options_.persistentCache && !options.cache)
        options.cache = options_.persistentCache;
    options.explore.evalPool = &evalPool_;
    if (options.explore.measureParallelism == 0)
        options.explore.measureParallelism = evalPool_.numThreads();
    // A request without its own registry aggregates its exploration
    // metrics into the service-wide one. Traces stay per-request: a
    // shared timeline would interleave concurrent runs.
    if (!options.explore.obs.metrics)
        options.explore.obs.metrics = &metrics_;
    TuneReport report = ft::tuneOp(anchor, target, options);
    evaluations_.add(static_cast<uint64_t>(report.trials));
    failures_.add(report.failures);
    retries_.add(report.retries);
    timeouts_.add(report.timeouts);
    quarantined_.add(report.quarantined);
    if (report.degraded)
        degradedReports_.add();
    if (report.fromCache)
        persistentCacheHits_.add();
    {
        MutexLock lock(mu_);
        lruPut(key, identityOf(), report);
        if (registered)
            inflight_.erase(key);
    }
    promise.set_value(report);
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
    const uint64_t key = familyFingerprint(family, target, options);
    const std::string identity = familyIdentity(family, target, options);
    std::promise<FamilyTuneReport> promise;
    std::shared_future<FamilyTuneReport> shared;
    bool owner = false;
    bool registered = false;
    {
        MutexLock lock(mu_);
        auto it = familyInflight_.find(key);
        if (it != familyInflight_.end() && it->second.identity == identity) {
            coalescedJoins_.add();
            shared = it->second.future;
        } else {
            tuningRuns_.add();
            owner = true;
            shared = promise.get_future().share();
            if (it == familyInflight_.end()) {
                familyInflight_.emplace(
                    key, InflightFamilyRun{identity, shared});
                registered = true;
            }
        }
    }
    if (!owner)
        return shared.get();

    options.explore.evalPool = &evalPool_;
    if (options.explore.measureParallelism == 0)
        options.explore.measureParallelism = evalPool_.numThreads();
    if (!options.explore.obs.metrics)
        options.explore.obs.metrics = &metrics_;
    // One shared model across every bucket of the family: each bucket's
    // trials train it, later buckets warm-start from the earlier ones.
    if (costModel_ && !options.explore.costModel)
        options.explore.costModel = costModel_.get();
    FamilyTuneReport report = ft::tuneFamily(family, target, options);
    evaluations_.add(static_cast<uint64_t>(report.totalTrials));
    if (report.table.total())
        publishDispatchTable(family.name, report.table);
    {
        MutexLock lock(mu_);
        if (registered)
            familyInflight_.erase(key);
    }
    promise.set_value(report);
    return report;
}

uint64_t
TuningService::graphFingerprint(const graph::ComputeDag &dag,
                                const Target &target,
                                const TuneOptions &options)
{
    const ExploreOptions &e = options.explore;
    uint64_t h = kFnvOffset;
    // The DAG's own 64-bit fingerprint is the structural key; device and
    // the result-shaping options fold in on top.
    fnvU64(h, dag.fingerprint());
    fnvStr(h, target.deviceName());
    fnvU64(h, static_cast<uint64_t>(options.method));
    fnvU64(h, static_cast<uint64_t>(e.trials));
    fnvU64(h, static_cast<uint64_t>(e.startingPoints));
    fnvU64(h, static_cast<uint64_t>(e.warmupPoints));
    fnvU64(h, e.seed);
    fnvReal(h, e.targetGflops);
    fnvU64(h, options.templateRestricted ? 1 : 0);
    fnvReal(h, e.deadlineSimSeconds);
    fnvU64(h, e.costModel != nullptr ? 1 : 0);
    fnvReal(h, e.prunerKeep);
    return h;
}

std::string
TuningService::graphIdentity(const graph::ComputeDag &dag,
                             const Target &target,
                             const TuneOptions &options)
{
    std::ostringstream oss;
    const ExploreOptions &e = options.explore;
    oss << dag.spec() << "@" << target.deviceName() << "#"
        << methodName(options.method) << "|trials=" << e.trials
        << "|starts=" << e.startingPoints << "|warmup=" << e.warmupPoints
        << "|seed=" << e.seed << "|target=" << e.targetGflops
        << "|tmpl=" << options.templateRestricted
        << "|deadline=" << e.deadlineSimSeconds
        << "|cm=" << (e.costModel != nullptr)
        << "|prune=" << e.prunerKeep;
    return oss.str();
}

graph::DagTuneReport
TuningService::tuneDag(const graph::ComputeDag &dag, const Target &target,
                       TuneOptions options)
{
    graphRequests_.add();
    const uint64_t key = graphFingerprint(dag, target, options);
    const std::string identity = graphIdentity(dag, target, options);
    std::promise<graph::DagTuneReport> promise;
    std::shared_future<graph::DagTuneReport> shared;
    bool owner = false;
    bool registered = false;
    {
        MutexLock lock(mu_);
        auto cached = graphCache_.find(key);
        if (cached != graphCache_.end() &&
            cached->second.identity == identity) {
            graphCacheHits_.add();
            return cached->second.report;
        }
        auto it = graphInflight_.find(key);
        if (it != graphInflight_.end() &&
            it->second.identity == identity) {
            coalescedJoins_.add();
            shared = it->second.future;
        } else {
            tuningRuns_.add();
            owner = true;
            shared = promise.get_future().share();
            if (it == graphInflight_.end()) {
                graphInflight_.emplace(key,
                                       InflightGraphRun{identity, shared});
                registered = true;
            }
        }
    }
    if (!owner)
        return shared.get();

    if (!options.cache)
        options.cache = options_.persistentCache;
    options.explore.evalPool = &evalPool_;
    if (options.explore.measureParallelism == 0)
        options.explore.measureParallelism = evalPool_.numThreads();
    if (!options.explore.obs.metrics)
        options.explore.obs.metrics = &metrics_;
    if (costModel_ && !options.explore.costModel)
        options.explore.costModel = costModel_.get();
    graph::DagTuneReport report = graph::tuneDag(dag, target, options);
    for (const auto &sub : report.groups) {
        if (!sub.tuned)
            continue;
        evaluations_.add(static_cast<uint64_t>(sub.report.trials));
        if (sub.report.fromCache)
            persistentCacheHits_.add();
    }
    {
        MutexLock lock(mu_);
        graphCache_[key] = GraphSlot{identity, report};
        if (registered)
            graphInflight_.erase(key);
    }
    promise.set_value(report);
    return report;
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

} // namespace

void
TuningService::publishDispatchTable(const std::string &familyName,
                                    const DispatchTable &table)
{
    const std::string &device = table.device();
    {
        MutexLock lock(mu_);
        const uint64_t slot = dispatchFingerprint(familyName, device);
        dispatch_[slot] =
            DispatchSlot{dispatchIdentity(familyName, device), table};
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
        const uint64_t slot =
            dispatchFingerprint(table->familyName(), table->device());
        dispatch_[slot] = DispatchSlot{
            dispatchIdentity(table->familyName(), table->device()),
            std::move(*table)};
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

FamilyServeResult
TuningService::serveShape(const ShapeFamily &family, int64_t shape,
                          const Target &target, FamilyTuneOptions options)
{
    FT_ASSERT(family.var.contains(shape), "shape ", shape,
              " outside the declared range of family ", family.name);
    familyRequests_.add();
    const uint64_t slot =
        dispatchFingerprint(family.name, target.deviceName());
    const std::string slotIdentity =
        dispatchIdentity(family.name, target.deviceName());
    {
        MutexLock lock(mu_);
        auto it = dispatch_.find(slot);
        if (it != dispatch_.end() && it->second.identity == slotIdentity) {
            const DispatchEntry &entry = it->second.table.lookup(shape);
            dispatchHits_.add();
            FamilyServeResult out;
            out.config = entry.config;
            adaptSplitToExtent(out.config, family.dynamicAxis, shape);
            out.gflops = entry.gflops;
            out.bucket = {entry.lo, entry.hi};
            out.fromDispatch = true;
            return out;
        }
    }
    // No table yet: tune the family (coalescing with concurrent
    // requests), then serve from the fresh table.
    FamilyTuneReport report = runFamily(family, target, std::move(options));
    const DispatchEntry &entry = report.table.lookup(shape);
    FamilyServeResult out;
    out.config = entry.config;
    adaptSplitToExtent(out.config, family.dynamicAxis, shape);
    out.gflops = entry.gflops;
    out.bucket = {entry.lo, entry.hi};
    out.fromDispatch = false;
    return out;
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

AdmittedReport
TuningService::tuneAnchorAdmitted(const Operation &anchor,
                                  const Target &target, TuneOptions options,
                                  RequestOptions request)
{
    const std::string opKey = tuningKeyFor(anchor, target.deviceName());
    const double now = options_.clock();
    const double deadline = now + request.deadlineSeconds;
    const AdmissionDecision decision =
        admission_->admit(opKey, request.priority, now, deadline);

    AdmittedReport out;
    out.outcome = decision.outcome;
    out.reason = decision.reason;
    switch (decision.outcome) {
      case AdmissionOutcome::Shed:
      case AdmissionOutcome::BreakerOpen:
        return out;
      case AdmissionOutcome::Brownout: {
        // Degraded mode: only the LRU report cache may answer — never
        // start fresh tuning work while saturated.
        const uint64_t key = requestFingerprint(anchor, target, options);
        const std::string identity =
            requestIdentity(anchor, target, options);
        MutexLock lock(mu_);
        if (const TuneReport *hit = lruGet(key, identity)) {
            resultCacheHits_.add();
            brownoutServed_.add();
            out.report = *hit;
            out.report->fromCache = true;
            out.degradedAnswer = true;
            out.reason.clear();
        }
        return out;
      }
      case AdmissionOutcome::Admitted:
        break;
    }

    propagateBudget(options.explore, decision.budgetSeconds);
    bool success = false;
    try {
        out.report = tuneAnchor(anchor, target, std::move(options));
        success = out.report->gflops > 0.0;
    } catch (...) {
        admission_->onComplete(opKey, decision.ticket, options_.clock(),
                               false);
        throw;
    }
    admission_->onComplete(opKey, decision.ticket, options_.clock(),
                           success);
    if (!success) {
        out.outcome = AdmissionOutcome::Shed;
        out.reason = "code=FT-ADM-RUN-FAILED why=\"tuning run produced no "
                     "valid schedule\"";
        out.report.reset();
    }
    return out;
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
    // The admission decision happens here, synchronously: a shed
    // request is refused before it ever occupies a request-pool slot.
    MiniGraph graph(output);
    const Operation anchor = anchorOp(graph);
    const std::string opKey = tuningKeyFor(anchor, target.deviceName());
    const double now = options_.clock();
    const double deadline = now + request.deadlineSeconds;
    const AdmissionDecision decision =
        admission_->admit(opKey, request.priority, now, deadline);

    if (decision.outcome != AdmissionOutcome::Admitted) {
        AdmittedReport out;
        out.outcome = decision.outcome;
        out.reason = decision.reason;
        if (decision.outcome == AdmissionOutcome::Brownout) {
            const uint64_t key =
                requestFingerprint(anchor, target, options);
            const std::string identity =
                requestIdentity(anchor, target, options);
            MutexLock lock(mu_);
            if (const TuneReport *hit = lruGet(key, identity)) {
                resultCacheHits_.add();
                brownoutServed_.add();
                out.report = *hit;
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
                success = out.report->gflops > 0.0;
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
    requestPool_.submit([task] { (*task)(); });
    return future;
}

AdmittedServeResult
TuningService::serveShapeAdmitted(const ShapeFamily &family, int64_t shape,
                                  const Target &target,
                                  FamilyTuneOptions options,
                                  RequestOptions request)
{
    const std::string opKey =
        dispatchIdentity(family.name, target.deviceName());
    const double now = options_.clock();
    const double deadline = now + request.deadlineSeconds;
    const AdmissionDecision decision =
        admission_->admit(opKey, request.priority, now, deadline);

    AdmittedServeResult out;
    out.outcome = decision.outcome;
    out.reason = decision.reason;

    // A published dispatch table answers a lookup without tuning — in
    // brownout it is the *only* permitted answer; on an admitted
    // request it is simply the fast path.
    auto fromTable = [&]() -> bool {
        const uint64_t slot =
            dispatchFingerprint(family.name, target.deviceName());
        MutexLock lock(mu_);
        auto it = dispatch_.find(slot);
        if (it == dispatch_.end() || it->second.identity != opKey ||
            !it->second.table.var().contains(shape))
            return false;
        const DispatchEntry &entry = it->second.table.lookup(shape);
        dispatchHits_.add();
        FamilyServeResult result;
        result.config = entry.config;
        adaptSplitToExtent(result.config, family.dynamicAxis, shape);
        result.gflops = entry.gflops;
        result.bucket = {entry.lo, entry.hi};
        result.fromDispatch = true;
        out.result = std::move(result);
        return true;
    };

    switch (decision.outcome) {
      case AdmissionOutcome::Shed:
      case AdmissionOutcome::BreakerOpen:
        return out;
      case AdmissionOutcome::Brownout:
        familyRequests_.add();
        if (fromTable()) {
            brownoutServed_.add();
            out.degradedAnswer = true;
            out.reason.clear();
        }
        return out;
      case AdmissionOutcome::Admitted:
        break;
    }

    familyRequests_.add();
    if (fromTable()) {
        admission_->onComplete(opKey, decision.ticket, options_.clock(),
                               true);
        out.reason.clear();
        return out;
    }
    propagateBudget(options.explore, decision.budgetSeconds);
    bool success = false;
    try {
        FamilyTuneReport report =
            runFamily(family, target, std::move(options));
        const DispatchEntry &entry = report.table.lookup(shape);
        FamilyServeResult result;
        result.config = entry.config;
        adaptSplitToExtent(result.config, family.dynamicAxis, shape);
        result.gflops = entry.gflops;
        result.bucket = {entry.lo, entry.hi};
        result.fromDispatch = false;
        out.result = std::move(result);
        success = true;
    } catch (...) {
        admission_->onComplete(opKey, decision.ticket, options_.clock(),
                               false);
        throw;
    }
    admission_->onComplete(opKey, decision.ticket, options_.clock(),
                           success);
    out.reason.clear();
    return out;
}

std::optional<DispatchTable>
TuningService::dispatchTableFor(const std::string &familyName,
                                const std::string &device) const
{
    const uint64_t slot = dispatchFingerprint(familyName, device);
    MutexLock lock(mu_);
    auto it = dispatch_.find(slot);
    if (it == dispatch_.end() ||
        it->second.identity != dispatchIdentity(familyName, device))
        return std::nullopt;
    return it->second.table;
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
    MutexLock lock(mu_);
    out.inflight = inflight_.size() + familyInflight_.size() +
                   graphInflight_.size();
    out.resultCacheSize = lru_.size();
    out.dispatchTables = dispatch_.size();
    return out;
}

} // namespace ft
