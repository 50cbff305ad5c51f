#include "explore/resilient.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace ft {

ResilientEvaluator::ResilientEvaluator(Evaluator &eval, ThreadPool *pool,
                                       int parallelism,
                                       ResilienceOptions options)
    : eval_(eval),
      pool_(pool),
      parallelism_(parallelism),
      options_(std::move(options)),
      scratch_(1)
{
    FT_ASSERT(options_.maxRetries >= 0, "negative retry budget");
    FT_ASSERT(options_.repeats >= 1, "repeats must be >= 1");
}

bool
ResilientEvaluator::faultsActive() const
{
    return options_.injector && options_.injector->profile().enabled();
}

int
ResilientEvaluator::parallelism() const
{
    if (parallelism_ > 0)
        return parallelism_;
    return pool_ ? pool_->numThreads() : 1;
}

bool
ResilientEvaluator::quarantined(const Point &p) const
{
    return quarantineSet_.count(p.key64()) > 0;
}

void
ResilientEvaluator::restore(const ResilienceStats &stats,
                            const std::vector<Point> &quarantine)
{
    stats_ = stats;
    quarantine_ = quarantine;
    quarantineSet_.clear();
    for (const Point &p : quarantine)
        quarantineSet_.insert(p.key64());
}

ResilientEvaluator::Measured
ResilientEvaluator::measureWithFaults(const Point &p, PointKey key64,
                                      double trueScore)
{
    // The injector's fate function hashes the legacy string key, so it
    // is still built here — only on the fault path, never fault-free —
    // keeping fault outcomes identical to earlier releases.
    const std::string key = p.key();
    const ResilienceStats before = stats_;
    const FaultInjector &injector = *options_.injector;
    const double measure_cost = eval_.measureCost();
    const double deadline = options_.trialDeadlineSeconds;

    Measured out;
    std::vector<double> &values = repeatValues_;
    values.clear();
    int attempt = 0;
    int failed_repeats = 0;
    for (int repeat = 0; repeat < options_.repeats; ++repeat) {
        bool delivered = false;
        for (int retry = 0; retry <= options_.maxRetries; ++retry) {
            FaultOutcome fate = injector.apply(key, attempt++, trueScore);
            if (fate.hung) {
                // The measurement hangs; the per-trial deadline kills it.
                double hang = injector.profile().hangSeconds;
                if (deadline > 0.0)
                    hang = std::min(hang, deadline);
                out.simCharge += hang;
                ++stats_.timeouts;
            } else {
                out.simCharge += measure_cost;
            }
            if (!fate.failed) {
                values.push_back(fate.gflops);
                delivered = true;
                break;
            }
            ++stats_.failures;
            if (retry < options_.maxRetries) {
                ++stats_.retries;
                out.simCharge +=
                    options_.backoffBaseSeconds * double(1 << retry);
            }
        }
        if (!delivered) {
            values.push_back(kInvalidGflops);
            ++failed_repeats;
        }
    }

    // Lower median: robust against a corrupted high reading without ever
    // inventing a value that was not measured.
    std::sort(values.begin(), values.end());
    out.value = values[(values.size() - 1) / 2];

    if (failed_repeats == options_.repeats &&
        quarantineSet_.insert(key64).second) {
        quarantine_.push_back(p);
        ++stats_.quarantined;
        debug("quarantined point ", key, " after ", attempt,
              " failed attempts");
        if (eval_.obs().trace) {
            eval_.obs().trace->point("quarantine",
                                     eval_.simulatedSeconds(),
                                     {tstr("key", key),
                                      tint("attempts", attempt)});
        }
    }
    ++stats_.measurements;
    if (MetricsRegistry *m = eval_.obs().metrics) {
        m->counter("resilience.failures")
            .add(stats_.failures - before.failures);
        m->counter("resilience.retries").add(stats_.retries - before.retries);
        m->counter("resilience.timeouts")
            .add(stats_.timeouts - before.timeouts);
        m->counter("resilience.quarantined")
            .add(stats_.quarantined - before.quarantined);
        m->counter("resilience.measurements").add();
    }
    return out;
}

std::vector<double>
ResilientEvaluator::evaluate(const std::vector<Point> &points)
{
    // Fresh work: the first occurrence of each not-yet-known point, in
    // submission order. Later duplicates read the committed value. Each
    // point is hashed exactly once; the key is reused for the dedup
    // probe, the commit, and the final cache read.
    fresh_.clear();
    batchKeys_.clear();
    keys_.resize(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        keys_[i] = points[i].key64();
        if (eval_.known(keys_[i]))
            continue;
        if (batchKeys_.insert(keys_[i]).second)
            fresh_.push_back(i);
    }

    if (!fresh_.empty()) {
        const ObsContext &obs = eval_.obs();
        const bool faults = faultsActive();
        if (obs.trace) {
            const TraceField batch =
                tint("batch", static_cast<int64_t>(points.size()));
            const TraceField fresh =
                tint("fresh", static_cast<int64_t>(fresh_.size()));
            // Only the fault path adds a field, so fault-free traces
            // read as they always have.
            if (faults) {
                obs.trace->begin("batch_evaluate", eval_.simulatedSeconds(),
                                 {batch, fresh, tbool("faults", true)});
            } else {
                obs.trace->begin("batch_evaluate", eval_.simulatedSeconds(),
                                 {batch, fresh});
            }
        }

        // True scores, in parallel when a pool is attached (pure model
        // queries, one scratch per worker).
        scores_.resize(fresh_.size());
        const size_t workers =
            pool_ && fresh_.size() > 1
                ? std::min<size_t>(pool_->numThreads(), fresh_.size())
                : 1;
        if (scratch_.size() < workers)
            scratch_.resize(workers);
        auto scoreFresh = [&](size_t w, size_t j) {
            scores_[j] = eval_.score(points[fresh_[j]], scratch_[w],
                                     /*traced=*/false);
        };
        if (workers > 1) {
            pool_->parallelFor(fresh_.size(), scoreFresh);
        } else {
            for (size_t j = 0; j < fresh_.size(); ++j)
                scoreFresh(0, j);
        }

        double per_point;
        if (faults) {
            // The fault/retry policy per point, sequentially, so the
            // outcome is deterministic regardless of thread
            // interleaving. Machines take points round-robin; the batch
            // spans the busiest machine, spread evenly across the curve
            // entries.
            loads_.assign(parallelism(), 0.0);
            for (size_t j = 0; j < fresh_.size(); ++j) {
                const Measured m = measureWithFaults(
                    points[fresh_[j]], keys_[fresh_[j]], scores_[j]);
                scores_[j] = m.value;
                loads_[j % loads_.size()] += m.simCharge;
            }
            const double span =
                *std::max_element(loads_.begin(), loads_.end());
            per_point = span / double(fresh_.size());
        } else {
            // The batch takes ceil(n / parallelism) rounds of one
            // measureCost each, spread evenly over the curve's
            // per-point entries.
            const double n = static_cast<double>(fresh_.size());
            const double rounds = std::ceil(n / parallelism());
            per_point = rounds * eval_.measureCost() / n;
        }
        for (size_t j = 0; j < fresh_.size(); ++j)
            eval_.commitMeasured(points[fresh_[j]], keys_[fresh_[j]],
                                 scores_[j], per_point);
        if (obs.trace)
            obs.trace->end("batch_evaluate", eval_.simulatedSeconds());
        if (obs.metrics) {
            obs.metrics->counter("eval.batches").add();
            obs.metrics->counter("eval.fresh_points").add(fresh_.size());
            obs.metrics
                ->histogram("eval.batch_size",
                            {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0})
                .observe(static_cast<double>(fresh_.size()));
        }
    }

    std::vector<double> out(points.size());
    for (size_t i = 0; i < points.size(); ++i)
        out[i] = eval_.evaluate(points[i], keys_[i]); // cache reads
    return out;
}

double
ResilientEvaluator::evaluate(const Point &p, PointKey key)
{
    if (!faultsActive() || eval_.known(key))
        return eval_.evaluate(p, key);
    Measured m = measureWithFaults(
        p, key, eval_.score(p, scratch_[0], /*traced=*/false));
    eval_.commitMeasured(p, key, m.value, m.simCharge);
    return m.value;
}

} // namespace ft
