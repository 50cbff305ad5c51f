/**
 * @file
 * Deterministic batched schedule evaluation (Section 5.2's parallel
 * measurement).
 *
 * A batch of candidate points is scored concurrently on a thread pool —
 * scoring is a pure model query — and then committed to the evaluator's
 * history H strictly in submission order, so history(), best(), and
 * bestPoint() are identical to a sequential run of the same batch. The
 * simulated clock charges ceil(freshPoints / parallelism) * measureCost
 * for the whole batch, modeling `parallelism` measurement machines
 * running rounds of concurrent trials; with parallelism == 1 the clock
 * and curve reduce exactly to the sequential ones.
 */
#ifndef FLEXTENSOR_SERVE_BATCH_EVAL_H
#define FLEXTENSOR_SERVE_BATCH_EVAL_H

#include <unordered_set>
#include <vector>

#include "explore/evaluator.h"
#include "support/thread_pool.h"

namespace ft {

class BatchEvaluator
{
  public:
    /**
     * @param eval the evaluator owning H and the simulated clock
     * @param pool optional worker pool; null means score sequentially
     * @param parallelism simulated measurement width (0 = pool size,
     *        or 1 without a pool)
     */
    explicit BatchEvaluator(Evaluator &eval, ThreadPool *pool = nullptr,
                            int parallelism = 0);

    /**
     * Evaluate a batch of points; returns one performance value per
     * input point (duplicates and already-known points are served from
     * the evaluator's cache and charge no simulated time).
     */
    std::vector<double> evaluate(const std::vector<Point> &points);

    /** Single-point convenience (equivalent to Evaluator::evaluate). */
    double evaluate(const Point &p);

    Evaluator &evaluator() { return eval_; }

    /** Effective measurement width used for the clock model. */
    int parallelism() const;

  private:
    Evaluator &eval_;
    ThreadPool *pool_;
    int parallelism_;

    /** Reused per-batch buffers (coalesced serving calls evaluate()
     *  many times; keeping these warm avoids per-batch allocation). */
    std::vector<size_t> fresh_;
    std::vector<PointKey> keys_;
    std::unordered_set<PointKey> batchKeys_;
    std::vector<double> scores_;
    /** One scoring scratch per pool worker (index = dense worker id). */
    std::vector<EvalScratch> scratch_;
};

} // namespace ft

#endif // FLEXTENSOR_SERVE_BATCH_EVAL_H
