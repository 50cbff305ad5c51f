/**
 * @file
 * The one batch-measurement path: parallel scoring, in-order commit,
 * the simulated measurement clock, and the fault-tolerance policy
 * (Section 5.2's parallel measurement).
 *
 * A batch of candidate points is scored concurrently on an optional
 * thread pool (scoring is a pure model query, each worker owning its
 * scratch) and then committed to the evaluator's history H strictly in
 * submission order, so history(), best() and bestPoint() are identical
 * to a sequential run of the same batch. Duplicates and already-known
 * points are served from the evaluator's cache and charge nothing.
 *
 * Without faults the simulated clock charges ceil(fresh / parallelism)
 * * measureCost for the whole batch, modeling `parallelism` measurement
 * machines running rounds of concurrent trials; with parallelism == 1
 * the clock and curve reduce exactly to the sequential ones.
 *
 * Real measurement backends fail. With an enabled fault injector every
 * exploration method degrades gracefully:
 *
 *  - Bounded retries with exponential backoff. Failed attempts are
 *    retried up to `maxRetries` times; each backoff wait is charged to
 *    the simulated clock, so flaky backends slow a run down exactly the
 *    way they would on real hardware.
 *  - Per-trial deadline. A hung measurement is killed after
 *    `trialDeadlineSeconds` of simulated time and reports kInvalidGflops
 *    instead of blocking the run forever.
 *  - Outlier rejection. With `repeats > 1` every fresh point is measured
 *    that many times and the (lower) median value is committed, so a
 *    single corrupted reading cannot become the best schedule.
 *  - Quarantine. A point whose every repeat exhausts its retries is
 *    committed as kInvalidGflops and its key recorded in the quarantine
 *    set; the evaluator cache guarantees it is never measured again.
 *
 * The policy runs sequentially after the parallel scoring, so its
 * outcome does not depend on thread interleaving. The batch clock then
 * models `parallelism` machines taking points round-robin, each running
 * its points' full attempt sequences back to back; the batch is charged
 * the busiest machine's span, spread evenly over the per-point curve
 * entries. With no (or a disabled) injector none of this runs, so
 * fault-free runs are bit-identical to runs without an injector.
 */
#ifndef FLEXTENSOR_EXPLORE_RESILIENT_H
#define FLEXTENSOR_EXPLORE_RESILIENT_H

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "explore/evaluator.h"
#include "support/fault_injector.h"
#include "support/thread_pool.h"

namespace ft {

/** Retry/deadline/repeat policy for one exploration run. */
struct ResilienceOptions
{
    /** Fault source (not owned); null or disabled = transparent layer. */
    const FaultInjector *injector = nullptr;
    /** Extra attempts after a failed measurement. */
    int maxRetries = 2;
    /** Simulated backoff before retry k: base * 2^k seconds. */
    double backoffBaseSeconds = 0.25;
    /** Kill a hung measurement after this much simulated time (0 = let
     *  it run the injector's full hang duration). */
    double trialDeadlineSeconds = 2.0;
    /** Measurements per fresh point; the lower median is committed. */
    int repeats = 1;
};

/** Counters accumulated by one ResilientEvaluator. */
struct ResilienceStats
{
    uint64_t measurements = 0; ///< fresh points committed
    uint64_t failures = 0;     ///< failed attempts (errors and hangs)
    uint64_t retries = 0;      ///< re-attempts after a failure
    uint64_t timeouts = 0;     ///< attempts that hung until killed
    uint64_t quarantined = 0;  ///< points that failed persistently
};

class ResilientEvaluator
{
  public:
    /**
     * @param eval the evaluator owning H and the simulated clock
     * @param pool optional worker pool for parallel scoring
     * @param parallelism simulated measurement width (0 = pool size,
     *        or 1 without a pool)
     * @param options retry/deadline policy and fault source
     */
    explicit ResilientEvaluator(Evaluator &eval, ThreadPool *pool = nullptr,
                                int parallelism = 0,
                                ResilienceOptions options = {});

    /**
     * Evaluate a batch, with the retry/deadline policy applied per fresh
     * point when faults are active; returns one value per input point.
     */
    std::vector<double> evaluate(const std::vector<Point> &points);

    /** Single-point evaluate (full per-point charge, no batching). */
    double evaluate(const Point &p) { return evaluate(p, p.key64()); }

    /** Single-point evaluate with the key64() already in hand. */
    double evaluate(const Point &p, PointKey key);

    /** Whether an enabled fault injector is attached. */
    bool faultsActive() const;

    /** Effective measurement width used for the clock model. */
    int parallelism() const;

    const ResilienceStats &stats() const { return stats_; }

    /** Persistently failing points, in quarantine order. */
    const std::vector<Point> &quarantine() const { return quarantine_; }

    bool quarantined(const Point &p) const;

    /** Reload counters and quarantine from a checkpoint. */
    void restore(const ResilienceStats &stats,
                 const std::vector<Point> &quarantine);

    Evaluator &evaluator() { return eval_; }

  private:
    /** One point's full measurement: repeats x retry loop. */
    struct Measured
    {
        double value = 0.0;     ///< median committed to H
        double simCharge = 0.0; ///< attempts + backoffs, seconds
    };
    Measured measureWithFaults(const Point &p, PointKey key,
                               double trueScore);

    Evaluator &eval_;
    ThreadPool *pool_;
    int parallelism_;
    ResilienceOptions options_;
    ResilienceStats stats_;
    std::vector<Point> quarantine_;
    std::unordered_set<PointKey> quarantineSet_;

    /** Per-batch buffers, kept warm across calls (coalesced serving and
     *  every explorer step call evaluate() many times). */
    std::vector<size_t> fresh_;
    std::vector<PointKey> keys_;
    std::unordered_set<PointKey> batchKeys_;
    std::vector<double> scores_;
    /** Per-machine simulated load of one faulted batch. */
    std::vector<double> loads_;
    /** One fresh point's repeat values under faults. */
    std::vector<double> repeatValues_;
    /** One scoring scratch per pool worker (index = dense worker id). */
    std::vector<EvalScratch> scratch_;
};

} // namespace ft

#endif // FLEXTENSOR_EXPLORE_RESILIENT_H
