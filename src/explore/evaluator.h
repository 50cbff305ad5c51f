/**
 * @file
 * Schedule-point evaluation with caching and a simulated exploration clock.
 *
 * The evaluator maintains the paper's evaluated set H: every point carries
 * its performance value E (GFLOPS under the target's analytical model).
 * Each *new* evaluation is charged a per-trial measurement cost on the
 * simulated clock, standing in for the compile+run latency of real
 * hardware measurement (<= 1 s on CPU/GPU per Section 5.2) or a model
 * query on FPGA.
 *
 * score() is the one scoring body (decode, lower, verify, model); the
 * single-point evaluate() here and the batch path of ResilientEvaluator
 * (explore/resilient.h) both run it, with wall profiling switched on
 * inside it.
 */
#ifndef FLEXTENSOR_EXPLORE_EVALUATOR_H
#define FLEXTENSOR_EXPLORE_EVALUATOR_H

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/verify/diag.h"
#include "obs/obs.h"
#include "schedule/generator.h"
#include "sim/perf_model.h"
#include "space/space.h"

namespace ft {

class CostModel;
class Counter;
class Gauge;
class Histogram;

/** One evaluated point of H. */
struct Evaluated
{
    Point point;
    double gflops;
};

/**
 * Reusable per-caller scoring buffers: the incremental decode state,
 * the lowered schedule, and the verifier report for it. Scoring through
 * one of these is allocation-free once warm; concurrent scorers must
 * each own their own scratch.
 */
struct EvalScratch
{
    DecodeScratch decode;
    Scheduled sched;
    verify::DiagReport diags;
    /**
     * Per-instance adapted config for family (joint) scoring: the
     * decoded generic config with the dynamic axis's split re-fit to
     * one concrete shape. Unused by single-shape evaluation.
     */
    OpConfig adapted;
};

class Evaluator
{
  public:
    /**
     * @param anchor the compute node being scheduled
     * @param space its schedule space (must outlive the evaluator)
     * @param target the device to model
     */
    Evaluator(Operation anchor, const ScheduleSpace &space, Target target);

    virtual ~Evaluator() = default;

    /**
     * Performance value of a point (GFLOPS; kInvalidGflops when the
     * static verifier finds an Error-severity diagnostic — a race,
     * out-of-bounds access, or hardware-limit violation — or the model
     * itself rejects the schedule). Cached: re-evaluating a known point
     * is free on the simulated clock.
     */
    double evaluate(const Point &p) { return evaluate(p, p.key64()); }

    /**
     * evaluate() with the point's key64() already in hand — the hot
     * loops compute the key once for the known() probe and pass it here
     * instead of hashing the point a second time.
     */
    double evaluate(const Point &p, PointKey key);

    /**
     * Pure model query: the performance value of a point (decode, lower,
     * verify, device model) without touching H, the cache, or the
     * simulated clock. Reuses the caller's buffers; each concurrent
     * scorer must own a distinct EvalScratch, and the batch layer scores
     * in parallel this way, then commits in order.
     *
     * Under obs().wallProfile the stages' wall nanoseconds flow into the
     * eval.*.ns counters (atomic adds, safe from worker threads). With
     * `traced` set the stages also become eval.decode / eval.lower /
     * eval.verify spans carrying their nanoseconds (the span clock is
     * the simulated clock, which does not advance inside one
     * evaluation); only the single-threaded evaluate() path sets it.
     *
     * Virtual so a joint (shape family) evaluator can swap the scoring
     * function while reusing the explorers, the cache/history machinery,
     * and the batch layer unchanged.
     */
    virtual double score(const Point &p, EvalScratch &scratch,
                         bool traced) const;

    /**
     * Record a measurement scored elsewhere: insert into H and the cache,
     * advance the simulated clock by `simCharge` seconds, and update the
     * best point. `p` must not be known yet. Batched measurement commits
     * points in submission order so H is deterministic.
     */
    void commitMeasured(const Point &p, double gflops, double simCharge)
    {
        commitMeasured(p, p.key64(), gflops, simCharge);
    }
    void commitMeasured(const Point &p, PointKey key, double gflops,
                        double simCharge);

    /** Whether the point has been evaluated before. */
    bool known(const Point &p) const { return known(p.key64()); }
    bool known(PointKey key) const { return cache_.count(key) > 0; }

    /**
     * Rebuild H from a checkpoint onto a fresh evaluator: every entry
     * re-enters the cache and history in order, the curve is rebuilt
     * against the recorded per-commit clock values `commitSim`, and the
     * simulated clock is set to `simSeconds` (which may exceed the last
     * commit when overhead was charged afterwards).
     */
    void restore(const std::vector<Evaluated> &history,
                 const std::vector<double> &commitSim, double simSeconds);

    /** The evaluated set H, in evaluation order. */
    const std::vector<Evaluated> &history() const { return history_; }

    /** Best performance value seen so far (E*). */
    double best() const { return best_; }

    /** The point achieving best(). */
    const Point &bestPoint() const { return bestPoint_; }

    /** Number of distinct measurements performed. */
    int numTrials() const { return static_cast<int>(history_.size()); }

    /** Simulated wall-clock seconds spent measuring. */
    double simulatedSeconds() const { return simSeconds_; }

    /** Add extra simulated time (search/model overhead of a method). */
    void chargeOverhead(double seconds) { simSeconds_ += seconds; }

    /** Per-measurement cost on the simulated clock. */
    void setMeasureCost(double seconds) { measureCost_ = seconds; }
    double measureCost() const { return measureCost_; }

    /**
     * Attach observability sinks (not owned; may both be null). Every
     * commit then emits an "eval" trace event and updates the
     * exploration metrics. Observation only: attaching sinks never
     * changes values, H order, or the simulated clock.
     */
    void setObs(const ObsContext &obs);

    /** The attached sinks (shared by the batch/resilient layers). */
    const ObsContext &obs() const { return obs_; }

    /**
     * Attach the persistent cost model (not owned; may be null). Every
     * subsequent commit records a training trial (features, GFLOPS,
     * workload group) with the model. Observation-only with respect to
     * H, the cache, and the simulated clock.
     */
    void setCostModel(CostModel *model) { costModel_ = model; }
    CostModel *costModel() const { return costModel_; }

    /**
     * Cost-model feature vector of a point (decode + lower only; no
     * verifier run, no clock charge). Single-threaded like evaluate():
     * reuses a dedicated scratch so it may interleave with scoring.
     */
    void costFeaturesFor(const Point &p, std::vector<double> &out) const;

    /**
     * Workload fingerprint grouping this evaluator's trials for the
     * rank objective: FNV-1a over the anchor's structural OpKey and the
     * device name.
     */
    uint64_t workloadKey() const { return workloadKey_; }

    /** (simulated time, best-so-far) after each measurement. */
    const std::vector<std::pair<double, double>> &curve() const
    {
        return curve_;
    }

    const ScheduleSpace &space() const { return space_; }
    const Operation &anchor() const { return anchor_; }
    const Target &target() const { return target_; }

  protected:
    /**
     * Run the static verifier on the lowered schedule in `scratch`,
     * updating the verify.* counters. True when an Error-severity
     * diagnostic gates the schedule (score is kInvalidGflops).
     */
    bool verifyRejects(const OpConfig &config, EvalScratch &scratch) const;

    /** Wall timers of the eval.decode/lower/verify stages score()
     *  runs, set by setObs. */
    StageTimer decodeTimer_, lowerTimer_, verifyTimer_;

  private:
    Operation anchor_;
    const ScheduleSpace &space_;
    Target target_;
    double measureCost_;

    ObsContext obs_;
    /** Pre-resolved instrument handles (null when metrics are off). */
    Counter *commitCounter_ = nullptr;
    Gauge *bestGauge_ = nullptr;
    Gauge *simGauge_ = nullptr;
    Histogram *gflopsHist_ = nullptr;
    /** Verifier gate counters (null when metrics are off). */
    Counter *verifyCheckedCounter_ = nullptr;
    Counter *verifyRejectedCounter_ = nullptr;
    /** Per-code rejection counters ("verify.reject.<code>"). */
    std::vector<std::pair<const char *, Counter *>> verifyCodeCounters_;

    /** Scoring buffers for the single-threaded evaluate() path. */
    mutable EvalScratch scratch_;

    /** Persistent cost model hookup (null = detached). */
    CostModel *costModel_ = nullptr;
    mutable EvalScratch costScratch_;
    mutable std::vector<double> costFeat_;
    uint64_t workloadKey_ = 0;

    std::unordered_map<PointKey, double> cache_;
    std::vector<Evaluated> history_;
    std::vector<std::pair<double, double>> curve_;
    double best_ = 0.0;
    Point bestPoint_;
    double simSeconds_ = 0.0;
};

} // namespace ft

#endif // FLEXTENSOR_EXPLORE_EVALUATOR_H
