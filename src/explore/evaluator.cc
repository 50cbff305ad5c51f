#include "explore/evaluator.h"

#include <string>

#include "analysis/verify/verify.h"
#include "ml/costmodel.h"
#include "ml/features.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "schedule/serialize.h"
#include "support/logging.h"

namespace ft {

namespace {

double
defaultMeasureCost(const Target &target)
{
    // Section 5.2: compile+measure is <= 1 s on CPU/GPU; on FPGA a model
    // query replaces hours of synthesis.
    switch (target.kind) {
      case DeviceKind::Gpu:
        return 0.8;
      case DeviceKind::Cpu:
        return 1.0;
      case DeviceKind::Fpga:
        return 0.05;
    }
    return 1.0;
}

/**
 * Error-severity diagnostic codes that can gate a schedule. Each gets a
 * dedicated "verify.reject.<code>" counter when metrics are attached.
 */
constexpr const char *kGatingCodes[] = {
    verify::kRaceReduceParallel, verify::kRaceStrideAlias,
    verify::kOobUnderflow,       verify::kOobOverflow,
    verify::kCovUnderCoverage,   verify::kResThreadsPerBlock,
    verify::kResSharedMem,       verify::kResRegisters,
    verify::kResVthreads,        verify::kResPeBudget,
    verify::kResBramBudget,
};

} // namespace

Evaluator::Evaluator(Operation anchor, const ScheduleSpace &space,
                     Target target)
    : anchor_(std::move(anchor)),
      space_(space),
      target_(target),
      measureCost_(defaultMeasureCost(target)),
      workloadKey_(ft::workloadKey(anchor_, target_.deviceName()))
{
    // Typical tuning budgets are a few hundred to a few thousand trials;
    // pre-sizing keeps the per-commit push_back off the allocator.
    history_.reserve(1024);
    curve_.reserve(1024);
}

double
Evaluator::evaluate(const Point &p, PointKey key)
{
    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;
    double gflops = score(p, scratch_, obs_.wallProfile && obs_.trace);
    commitMeasured(p, key, gflops, measureCost_);
    return gflops;
}

double
Evaluator::score(const Point &p, EvalScratch &scratch, bool traced) const
{
    // Each profiled stage ends with one clock read; when traced it also
    // becomes a span of its own carrying its nanoseconds.
    TraceRecorder *trace = traced ? obs_.trace : nullptr;
    WallMark mark = decodeTimer_.start(trace);
    auto stage = [&](const StageTimer &timer, const char *name) {
        const int64_t ns = timer.lap(mark);
        if (trace) {
            trace->begin(name, simSeconds_);
            trace->end(name, simSeconds_, {tint("ns", ns)});
        }
    };

    const OpConfig &config = space_.decodeInto(p, scratch.decode);
    stage(decodeTimer_, "eval.decode");
    generateInto(anchor_, config, target_, scratch.sched);
    stage(lowerTimer_, "eval.lower");
    const bool rejected = verifyRejects(config, scratch);
    stage(verifyTimer_, "eval.verify");
    if (rejected) {
        if (trace) {
            trace->point(
                "verify.reject", simSeconds_,
                {tstr("code", scratch.diags.firstError()->code)});
        }
        return kInvalidGflops;
    }
    PerfResult perf = modelPerf(scratch.sched.features, target_);
    return perf.valid ? perf.gflops : kInvalidGflops;
}

bool
Evaluator::verifyRejects(const OpConfig &config, EvalScratch &scratch) const
{
    scratch.diags.clear();
    verify::verifyScheduleInto(scratch.sched, target_, &config,
                               scratch.diags);
    if (verifyCheckedCounter_)
        verifyCheckedCounter_->add();
    if (!scratch.diags.hasError())
        return false;
    if (verifyRejectedCounter_) {
        verifyRejectedCounter_->add();
        // Attribute the rejection to its gating (first-error) code so
        // the per-code counters sum to verify.rejected and agree with
        // the "verify.reject" trace points.
        const verify::Diag *e = scratch.diags.firstError();
        for (const auto &[code, counter] : verifyCodeCounters_) {
            if (e->code == code) {
                counter->add();
                break;
            }
        }
    }
    return true;
}

void
Evaluator::setObs(const ObsContext &obs)
{
    obs_ = obs;
    commitCounter_ = maybeCounter(obs_.metrics, "explore.evals");
    bestGauge_ = maybeGauge(obs_.metrics, "explore.best_gflops");
    simGauge_ = maybeGauge(obs_.metrics, "explore.sim_seconds");
    gflopsHist_ = maybeHistogram(obs_.metrics, "eval.gflops",
                                 {1.0, 10.0, 100.0, 1000.0, 10000.0});
    decodeTimer_ = StageTimer(obs_, "eval.decode.ns");
    lowerTimer_ = StageTimer(obs_, "eval.lower.ns");
    verifyTimer_ = StageTimer(obs_, "eval.verify.ns");
    verifyCheckedCounter_ = maybeCounter(obs_.metrics, "verify.checked");
    verifyRejectedCounter_ = maybeCounter(obs_.metrics, "verify.rejected");
    verifyCodeCounters_.clear();
    if (obs_.metrics) {
        for (const char *code : kGatingCodes)
            verifyCodeCounters_.emplace_back(
                code, maybeCounter(obs_.metrics,
                                   std::string("verify.reject.") + code));
    }
}

void
Evaluator::commitMeasured(const Point &p, PointKey key, double gflops,
                          double simCharge)
{
    auto [it, inserted] = cache_.emplace(key, gflops);
    FT_ASSERT(inserted, "committing an already-known point");
    (void)it;
    history_.push_back({p, gflops});
    simSeconds_ += simCharge;
    if (gflops > best_) {
        best_ = gflops;
        bestPoint_ = p;
    }
    curve_.emplace_back(simSeconds_, best_);
    if (obs_.trace) {
        obs_.trace->point(
            "eval", simSeconds_,
            {tint("trial", static_cast<int64_t>(history_.size())),
             tstr("key", p.key()), treal("gflops", gflops),
             treal("best", best_)});
    }
    if (commitCounter_) {
        commitCounter_->add();
        bestGauge_->set(best_);
        simGauge_->set(simSeconds_);
        gflopsHist_->observe(gflops);
    }
    if (costModel_) {
        costFeaturesFor(p, costFeat_);
        costModel_->recordTrial(costFeat_, gflops, workloadKey_, &obs_,
                                simSeconds_);
    }
}

void
Evaluator::costFeaturesFor(const Point &p, std::vector<double> &out) const
{
    const OpConfig &config = space_.decodeInto(p, costScratch_.decode);
    generateInto(anchor_, config, target_, costScratch_.sched);
    costFeaturesInto(costScratch_.sched, target_, out);
}

void
Evaluator::restore(const std::vector<Evaluated> &history,
                   const std::vector<double> &commitSim, double simSeconds)
{
    FT_ASSERT(history_.empty(), "restoring a non-empty evaluator");
    FT_ASSERT(history.size() == commitSim.size(),
              "history/clock length mismatch");
    for (size_t i = 0; i < history.size(); ++i) {
        const Evaluated &e = history[i];
        cache_.emplace(e.point.key64(), e.gflops);
        history_.push_back(e);
        if (e.gflops > best_) {
            best_ = e.gflops;
            bestPoint_ = e.point;
        }
        curve_.emplace_back(commitSim[i], best_);
    }
    simSeconds_ = simSeconds;
}

} // namespace ft
