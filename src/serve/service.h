/**
 * @file
 * TuningService: the concurrent serving front-end over the tuner.
 *
 * A service owns two worker pools — one running whole tuning requests
 * (submit()), one scoring measurement batches inside each request — and
 * layers three levels of result reuse over the tuner:
 *
 *   1. An in-memory LRU cache of complete TuneReports.
 *   2. Request coalescing: concurrent identical requests share a single
 *      in-flight tuning run; joiners block on a shared future and all
 *      receive the same report.
 *   3. The persistent TuningCache (best schedule per anchor OpKey and
 *      device), consulted and updated by the underlying tuner.
 *
 * A request is identified by its RequestKey (serve/request_key.h): the
 * anchor's structural OpKey, the device, and every option that can
 * change the answer (method, budgets, seeds, search hyperparameters,
 * certification, fault profile and retry policy, checkpoint path, and
 * whether a cost model or persistent cache is attached). Two requests
 * share a report only when their keys are equal as values.
 *
 * Whole DAGs and shape families get the same treatment one level up,
 * keyed by the DAG's spec() or the family's fields: tuneDag() reports
 * are cached and coalesced, tuneFamily() requests coalesce, and finished
 * family runs publish their DispatchTable so serveShape() can answer any
 * in-range shape from the table without tuning again.
 *
 * Per-service counters expose the request mix for monitoring.
 */
#ifndef FLEXTENSOR_SERVE_SERVICE_H
#define FLEXTENSOR_SERVE_SERVICE_H

#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "explore/tuner.h"
#include "family/tune_family.h"
#include "graph/schedule_dag.h"
#include "ml/costmodel.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/request_key.h"
#include "support/thread_pool.h"
#include "support/thread_annotations.h"

namespace ft {

/** Construction-time service configuration. */
struct ServiceOptions
{
    /** Workers scoring measurement batches (Section 5.2 parallelism). */
    int evalThreads = 4;
    /** Tuning requests running concurrently via submit(). */
    int requestThreads = 2;
    /** Complete TuneReports kept in the in-memory LRU cache. */
    size_t resultCacheCapacity = 128;
    /** Optional persistent best-schedule store (not owned). */
    TuningCache *persistentCache = nullptr;
    /** Admission-control policy for the *Admitted request paths. The
     *  worker count defaults to requestThreads when left at <= 0. */
    AdmissionOptions admission;
    /**
     * Simulated exploration seconds one wall second of request budget
     * buys: the exchange rate for end-to-end deadline propagation
     * (request deadline → explore.deadlineSimSeconds → per-trial
     * deadline). 0 disables propagation into the explorer.
     */
    double simBudgetPerSecond = 0.0;
    /** Clock behind admission decisions, seconds. Defaults to the
     *  steady clock; tests and benches inject a manual one. */
    std::function<double()> clock;
    /**
     * Directory for published DispatchTable files. When set, family
     * runs persist their table here (journal format, atomic rename)
     * and the constructor reloads every table found, so published
     * tables survive a process restart.
     */
    std::string dispatchDir;
    /**
     * Enable the service-wide persistent learned cost model: every
     * completed trial from every request trains one ranking GBT
     * (batched refit on a background thread; inference reads an
     * immutable snapshot), and requests opt into model-guided pruning
     * per-request via TuneOptions.explore.prunerKeep. The model is
     * reloaded from costModel.persistPath at startup when set.
     */
    bool enableCostModel = false;
    /** Cost-model knobs (journal path, refit period, GBT options). */
    CostModelOptions costModel;
};

/**
 * Snapshot of the per-service counters. All counter fields are read from
 * one MetricsRegistry::snapshot(), so a stats() reader never observes a
 * torn or partially-updated set while runs complete concurrently; the
 * full registry (including the per-method request mix and the metrics
 * the exploration layers emit into the service registry) rides along in
 * `metrics`.
 */
struct ServiceStats
{
    uint64_t requests = 0;           ///< tune()/submit() calls accepted
    uint64_t resultCacheHits = 0;    ///< served from the LRU report cache
    uint64_t persistentCacheHits = 0;///< tuner short-circuited by TuningCache
    uint64_t coalescedJoins = 0;     ///< requests that joined an in-flight run
    uint64_t tuningRuns = 0;         ///< actual exploration runs started
    uint64_t evaluations = 0;        ///< schedule measurements performed
    uint64_t failures = 0;           ///< failed measurement attempts
    uint64_t retries = 0;            ///< measurement attempts retried
    uint64_t timeouts = 0;           ///< measurements killed at the deadline
    uint64_t quarantined = 0;        ///< points quarantined as unmeasurable
    uint64_t degradedReports = 0;    ///< runs cut short by their deadline
    uint64_t familyRequests = 0;     ///< tuneFamily()/serveShape() calls
    uint64_t dispatchHits = 0;       ///< shapes served from a dispatch table
    uint64_t graphRequests = 0;      ///< tuneDag() calls
    uint64_t graphCacheHits = 0;     ///< DAGs served from the graph cache
    uint64_t brownoutServed = 0;     ///< degraded answers from caches
    size_t inflight = 0;             ///< runs currently executing
    size_t resultCacheSize = 0;      ///< reports currently in the LRU
    size_t dispatchTables = 0;       ///< dispatch tables published
    size_t evalQueueDepth = 0;       ///< jobs queued on the evaluation pool
    /** Learned cost model state (zero/false when disabled). */
    size_t costModelTrials = 0;   ///< trials in the training window
    uint64_t costModelRefits = 0; ///< refits performed since startup
    bool costModelReady = false;  ///< a trained snapshot is serving
    /** Admission-control state (the *Admitted request paths). */
    AdmissionStats admission;
    /** Full registry snapshot the fields above were read from. */
    MetricsSnapshot metrics;
};

/** Outcome of serving one concrete shape of a family. */
struct FamilyServeResult
{
    /** Bucket's best schedule, dynamic split re-fit to the shape. */
    OpConfig config;
    double gflops = 0.0; ///< recorded family score of the bucket entry
    ShapeBucket bucket;  ///< bucket that served the shape
    /** True when an already-published dispatch table answered. */
    bool fromDispatch = false;
};

/** Per-request admission parameters for the *Admitted entry points. */
struct RequestOptions
{
    /** Interactive lookups outrank batch tunes under pressure. */
    RequestPriority priority = RequestPriority::Batch;
    /** Wall seconds from submission until the answer is worthless;
     *  infinity means no deadline. */
    double deadlineSeconds = std::numeric_limits<double>::infinity();
};

/** An admission-gated tuning answer. */
struct AdmittedReport
{
    AdmissionOutcome outcome = AdmissionOutcome::Shed;
    /** Structured rejection reason; empty when a report is present. */
    std::string reason;
    /** True when a brownout was answered from the LRU report cache. */
    bool degradedAnswer = false;
    /** The report, when admitted or brownout-served. */
    std::optional<TuneReport> report;

    bool served() const { return report.has_value(); }
};

/** An admission-gated family serve answer. */
struct AdmittedServeResult
{
    AdmissionOutcome outcome = AdmissionOutcome::Shed;
    std::string reason;
    /** True when a brownout was answered from a published table. */
    bool degradedAnswer = false;
    std::optional<FamilyServeResult> result;

    bool served() const { return result.has_value(); }
};

class TuningService
{
  public:
    explicit TuningService(const ServiceOptions &options = {});
    /** Finishes every queued request before tearing anything down. */
    ~TuningService();

    TuningService(const TuningService &) = delete;
    TuningService &operator=(const TuningService &) = delete;

    /**
     * Tune the mini-graph rooted at `output`. Thread-safe; identical
     * concurrent requests coalesce into one run. Blocks until a report
     * is available (possibly produced by another caller's run).
     */
    TuneReport tune(const Tensor &output, const Target &target,
                    TuneOptions options = {});

    /** Tune one specific compute node (same reuse/coalescing path). */
    TuneReport tuneAnchor(const Operation &anchor, const Target &target,
                          TuneOptions options = {});

    /** Enqueue a request on the service's request pool. */
    std::future<TuneReport> submit(const Tensor &output,
                                   const Target &target,
                                   TuneOptions options = {});

    /**
     * Admission-gated tune: the controller decides *synchronously* —
     * shed and breaker rejections return immediately with a structured
     * reason, a brownout is answered from a valid report in the LRU
     * report cache or refused, and an admitted request runs with its
     * remaining wall budget propagated into the explorer's simulated
     * deadline and the per-trial deadline (see
     * ServiceOptions::simBudgetPerSecond). An admitted run whose
     * report is not valid (no schedule found) is refused with
     * FT-ADM-RUN-FAILED and counts as a failure for the op's breaker.
     */
    AdmittedReport tuneAdmitted(const Tensor &output, const Target &target,
                                TuneOptions options = {},
                                RequestOptions request = {});

    /** tuneAdmitted() for one specific compute node. */
    AdmittedReport tuneAnchorAdmitted(const Operation &anchor,
                                      const Target &target,
                                      TuneOptions options = {},
                                      RequestOptions request = {});

    /**
     * Admission-gated submit: the admission decision happens now, on
     * the caller's thread (a shed request never occupies a queue slot);
     * only admitted work is enqueued. The returned future is always
     * valid and yields the same AdmittedReport tuneAdmitted() would.
     */
    std::future<AdmittedReport> submitAdmitted(const Tensor &output,
                                               const Target &target,
                                               TuneOptions options = {},
                                               RequestOptions request = {});

    /**
     * Admission-gated serveShape(). Defaults to Interactive priority:
     * table lookups are the traffic the queue headroom protects. In
     * brownout only a published dispatch table may answer.
     */
    AdmittedServeResult
    serveShapeAdmitted(const ShapeFamily &family, int64_t shape,
                       const Target &target, FamilyTuneOptions options = {},
                       RequestOptions request = {RequestPriority::Interactive,
                                                 std::numeric_limits<
                                                     double>::infinity()});

    /**
     * Tune a whole shape family. Thread-safe; identical concurrent
     * family requests coalesce into one run. On success the family's
     * DispatchTable is published for serveShape().
     */
    FamilyTuneReport tuneFamily(const ShapeFamily &family,
                                const Target &target,
                                FamilyTuneOptions options = {});

    /**
     * Graph-level scheduling of a whole compute DAG. Requests are keyed
     * by the DAG's spec() plus device and tuning options: a repeat
     * request is served from the graph report cache without
     * re-partitioning or re-tuning, and concurrent identical requests
     * coalesce into one run (the anchor tunes inside still hit the
     * operator-level reuse layers).
     */
    graph::DagTuneReport tuneDag(const graph::ComputeDag &dag,
                                 const Target &target,
                                 TuneOptions options = {});

    /**
     * Serve one concrete shape of a family: a published dispatch table
     * answers immediately (a dispatch hit); otherwise the family is
     * tuned first (coalescing with concurrent requests) and the fresh
     * table answers. The shape must be inside the declared range. Only
     * valid entries answer: when the shape's bucket found no schedule
     * serving all its shapes, even by fallback, this throws
     * std::out_of_range instead of serving a failed search.
     */
    FamilyServeResult serveShape(const ShapeFamily &family, int64_t shape,
                                 const Target &target,
                                 FamilyTuneOptions options = {});

    /** Copy of the published table for a family/device, if any. */
    std::optional<DispatchTable>
    dispatchTableFor(const std::string &familyName,
                     const std::string &device) const;

    /** Counter snapshot (one consistent MetricsRegistry snapshot). */
    ServiceStats stats() const;

    /**
     * The service-wide metrics registry. Requests without their own
     * registry aggregate their exploration metrics here; external
     * instruments may be registered too.
     */
    MetricsRegistry &metrics() { return metrics_; }

    /** The measurement pool (shared by all requests). */
    ThreadPool &evalPool() { return evalPool_; }

    /** The admission controller behind the *Admitted entry points. */
    AdmissionController &admission() { return *admission_; }

    /** The persistent cost model (null unless enableCostModel). */
    CostModel *costModel() { return costModel_.get(); }

    const ServiceOptions &options() const { return options_; }

  private:
    /**
     * Point a request's options at the service: the shared evaluation
     * pool, the service-wide cost model, persistent cache and metrics
     * registry, unless the request brings its own. Done before keying,
     * so the key names the options the run actually uses.
     */
    void prepare(ExploreOptions &explore);
    void prepare(TuneOptions &options);

    /**
     * The admission path behind tuneAnchorAdmitted() and
     * submitAdmitted(): decide now, answer a brownout from the report
     * cache, and run an admitted request on the request pool when
     * `onRequestPool`, else on the caller's thread.
     */
    std::future<AdmittedReport> admitAnchor(const Operation &anchor,
                                            const Target &target,
                                            TuneOptions options,
                                            RequestOptions request,
                                            bool onRequestPool);

    /** Serve `shape` from the published table of its family, if any. */
    std::optional<FamilyServeResult>
    fromDispatch(const ShapeFamily &family, int64_t shape,
                 const Target &target);

    /** The coalescing family run behind tuneFamily()/serveShape(). */
    FamilyTuneReport runFamily(const ShapeFamily &family,
                               const Target &target,
                               FamilyTuneOptions options);

    /**
     * Clamp the explorer's simulated budget (run deadline + per-trial
     * deadline) to what `budgetSeconds` of wall time buys at the
     * configured exchange rate. No-op when propagation is disabled or
     * the request has no deadline.
     */
    void propagateBudget(ExploreOptions &explore,
                         double budgetSeconds) const;

    /** Publish one table under mu_ and persist it when dispatchDir is
     *  set. Caller must NOT hold mu_. */
    void publishDispatchTable(const std::string &familyName,
                              const DispatchTable &table);

    /** Load every persisted table from options_.dispatchDir. */
    void reloadDispatchTables();

    ServiceOptions options_;
    ThreadPool evalPool_;
    ThreadPool requestPool_;
    std::unique_ptr<AdmissionController> admission_;
    std::unique_ptr<CostModel> costModel_;

    /** All service counters live here (atomic; snapshot-consistent). */
    MetricsRegistry metrics_;
    Counter &requests_;
    Counter &resultCacheHits_;
    Counter &persistentCacheHits_;
    Counter &coalescedJoins_;
    Counter &tuningRuns_;
    Counter &evaluations_;
    Counter &failures_;
    Counter &retries_;
    Counter &timeouts_;
    Counter &quarantined_;
    Counter &degradedReports_;
    Counter &familyRequests_;
    Counter &dispatchHits_;
    Counter &brownoutServed_;
    Counter &graphRequests_;
    Counter &graphCacheHits_;

    /** Operator requests: the LRU report cache and coalescing. */
    RequestTable<TuneReport> reports_;
    /** Family requests coalesce; published tables answer repeats. */
    RequestTable<FamilyTuneReport> families_;
    /** Whole-DAG requests: an unbounded report cache and coalescing. */
    RequestTable<graph::DagTuneReport> dags_;

    mutable Mutex mu_;
    std::unordered_map<RequestKey, DispatchTable, RequestKey::Hash>
        dispatch_ FT_GUARDED_BY(mu_);
};

} // namespace ft

#endif // FLEXTENSOR_SERVE_SERVICE_H
