#include "ml/costmodel.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/hexfloat.h"
#include "support/journal.h"
#include "support/rng.h"

namespace ft {

const char kCostModelJournalKind[] = "ftcost";

namespace {

/** Refit seed base; XORed with the running trial count so every refit
 *  draws a distinct but reproducible stream. */
constexpr uint64_t kRefitSeed = 0x5eedc057ULL;

} // namespace

CostModel::CostModel(CostModelOptions options)
    : options_(std::move(options))
{
}

CostModel::~CostModel()
{
    stopBackgroundRefit();
}

void
CostModel::appendTrialFrame(const CostTrial &trial)
{
    std::ostringstream oss;
    char group[24];
    std::snprintf(group, sizeof(group), "%" PRIx64, trial.group);
    oss << "t " << group << ' ' << hexDouble(trial.gflops) << ' '
        << trial.features.size();
    for (double f : trial.features)
        oss << ' ' << hexDouble(f);
    MutexLock lock(fileMu_);
    journalAppend(options_.persistPath, kCostModelJournalKind, oss.str());
}

void
CostModel::appendModelFrame(const GbtModel &model)
{
    MutexLock lock(fileMu_);
    journalAppend(options_.persistPath, kCostModelJournalKind,
                  "m " + model.serialize());
}

bool
CostModel::load()
{
    if (options_.persistPath.empty())
        return false;
    JournalContents contents = readJournal(options_.persistPath);
    if (!contents.valid || contents.kind != kCostModelJournalKind)
        return false;
    if (contents.torn)
        truncateToValid(options_.persistPath, contents);

    std::vector<CostTrial> trials;
    std::shared_ptr<const GbtModel> snapshot;
    for (const std::string &rec : contents.records) {
        if (rec.size() < 2)
            continue;
        if (rec[0] == 'm' && rec[1] == ' ') {
            auto model = std::make_shared<GbtModel>();
            if (model->deserialize(rec.substr(2)) && model->trained())
                snapshot = std::move(model); // newest model frame wins
            continue;
        }
        if (rec[0] != 't' || rec[1] != ' ')
            continue;
        std::istringstream iss(rec.substr(2));
        std::string group_tok;
        CostTrial trial;
        size_t n = 0;
        if (!(iss >> group_tok) || !readDouble(iss, trial.gflops) ||
            !(iss >> n)) {
            continue;
        }
        trial.group = std::strtoull(group_tok.c_str(), nullptr, 16);
        trial.features.resize(n);
        bool ok = true;
        for (size_t i = 0; i < n && ok; ++i)
            ok = readDouble(iss, trial.features[i]);
        if (ok)
            trials.push_back(std::move(trial));
    }

    MutexLock lock(mu_);
    recorded_ = trials.size();
    if (trials.size() > options_.maxTrials) {
        trials.erase(trials.begin(),
                     trials.end() -
                         static_cast<long>(options_.maxTrials));
    }
    trials_ = std::move(trials);
    if (snapshot)
        snapshot_ = std::move(snapshot);
    sinceRefit_ = 0;
    return true;
}

void
CostModel::recordTrial(const std::vector<double> &features, double gflops,
                       uint64_t group, const ObsContext *obs, double sim)
{
    CostTrial trial{features, gflops, group};
    if (!options_.persistPath.empty())
        appendTrialFrame(trial);

    RefitJob job;
    bool fitNow = false;
    {
        MutexLock lock(mu_);
        trials_.push_back(std::move(trial));
        if (trials_.size() > options_.maxTrials)
            trials_.erase(trials_.begin());
        ++recorded_;
        ++sinceRefit_;
        if (sinceRefit_ >= options_.refitEvery) {
            if (options_.syncRefit) {
                fitNow = snapshotWindowLocked(job);
            } else {
                sinceRefit_ = 0;
                kick_ = true;
                cv_.notify_one();
            }
        }
    }
    if (fitNow)
        fitAndPublish(job, obs, sim);
    if (obs && obs->metrics)
        obs->metrics->counter("costmodel.trials").add(1);
}

bool
CostModel::ready() const
{
    MutexLock lock(mu_);
    return snapshot_ != nullptr && snapshot_->trained();
}

double
CostModel::predict(const std::vector<double> &features) const
{
    std::shared_ptr<const GbtModel> model;
    {
        MutexLock lock(mu_);
        model = snapshot_;
    }
    return model ? model->predict(features) : 0.0;
}

void
CostModel::refitNow(const ObsContext *obs, double sim)
{
    RefitJob job;
    bool fit;
    {
        MutexLock lock(mu_);
        fit = snapshotWindowLocked(job);
    }
    if (fit)
        fitAndPublish(job, obs, sim);
}

bool
CostModel::snapshotWindowLocked(RefitJob &job)
{
    sinceRefit_ = 0;
    if (trials_.empty())
        return false;
    // Clone the window under the lock, fit outside it: predict() keeps
    // serving the old snapshot for the whole (potentially long) fit.
    job.x.reserve(trials_.size());
    job.y.reserve(trials_.size());
    job.groups.reserve(trials_.size());
    for (const CostTrial &t : trials_) {
        job.x.push_back(t.features);
        job.y.push_back(t.gflops);
        job.groups.push_back(t.group);
    }
    job.seed = kRefitSeed ^ recorded_;
    return true;
}

void
CostModel::fitAndPublish(const RefitJob &job, const ObsContext *obs,
                         double sim)
{
    if (obs && obs->trace) {
        obs->trace->begin("costmodel.train", sim,
                          {tint("trials",
                                static_cast<int64_t>(job.x.size()))});
    }
    auto model = std::make_shared<GbtModel>();
    Rng rng(job.seed);
    model->fitRank(job.x, job.y, job.groups, options_.gbt, rng);
    if (obs && obs->trace)
        obs->trace->end("costmodel.train", sim);
    if (obs && obs->metrics)
        obs->metrics->counter("costmodel.refits").add(1);
    if (!options_.persistPath.empty())
        appendModelFrame(*model);

    MutexLock lock(mu_);
    snapshot_ = std::move(model);
    ++refits_;
}

void
CostModel::startBackgroundRefit()
{
    MutexLock lock(mu_);
    if (trainer_.joinable())
        return;
    stop_ = false;
    trainer_ = std::thread([this] { trainerLoop(); });
}

void
CostModel::stopBackgroundRefit()
{
    {
        MutexLock lock(mu_);
        if (!trainer_.joinable())
            return;
        stop_ = true;
        cv_.notify_one();
    }
    trainer_.join();
    MutexLock lock(mu_);
    trainer_ = std::thread();
    stop_ = false;
}

// A condition wait releases and re-acquires mu_ inside cv_.wait(),
// which the thread-safety analysis cannot follow; the loop holds mu_
// at every access of kick_/stop_/the trial window, and drops it around
// each fit, exactly like the annotated recordTrial() path.
void
CostModel::trainerLoop() FT_NO_THREAD_SAFETY_ANALYSIS
{
    std::unique_lock<std::mutex> lock(mu_.native());
    while (true) {
        cv_.wait(lock, [this] { return kick_ || stop_; });
        if (stop_)
            return;
        kick_ = false;
        RefitJob job;
        if (!snapshotWindowLocked(job))
            continue;
        lock.unlock();
        fitAndPublish(job, nullptr, 0.0);
        lock.lock();
    }
}

size_t
CostModel::numTrials() const
{
    MutexLock lock(mu_);
    return trials_.size();
}

uint64_t
CostModel::refits() const
{
    MutexLock lock(mu_);
    return refits_;
}

} // namespace ft
