#include "explore/explorer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>

#include "explore/checkpoint.h"
#include "explore/sa.h"
#include "ml/costmodel.h"
#include "ml/gbt.h"
#include "nn/mlp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"
#include "support/rng.h"

namespace ft {

namespace {

/**
 * The Q-method's fixed learning set-up (Section 5.1): the exploration
 * rate of its epsilon-greedy moves (AutoTVM's batches use the same
 * rate), the discount on the next state's best Q-value, the replay
 * sample per training round, and the width of the network's three
 * hidden layers.
 */
constexpr double kEpsilon = 0.10;
constexpr double kQAlpha = 0.7;
constexpr int kReplayBatch = 32;
constexpr int kHidden = 64;

/** State one run shares between the driver and its proposal policy. */
struct SearchRun
{
    SearchRun(Evaluator &eval, const ExploreOptions &options)
        : eval(eval),
          space(eval.space()),
          options(options),
          trace(options.obs.trace),
          metrics(options.obs.metrics),
          rng(options.seed),
          reval(eval, options.evalPool, /*parallelism=*/0,
                options.resilience)
    {
        eval.setObs(options.obs);
        eval.setCostModel(options.costModel);
    }

    /** True once the run must stop proposing: the target is reached, or
     *  the deadline is hit (which also sets deadlineExceeded). */
    bool shouldStop()
    {
        if (options.targetGflops > 0.0 &&
            eval.best() >= options.targetGflops) {
            return true;
        }
        if (options.deadlineSimSeconds > 0.0 &&
            eval.simulatedSeconds() >= options.deadlineSimSeconds) {
            deadlineExceeded = true;
            return true;
        }
        return false;
    }

    Evaluator &eval;
    const ScheduleSpace &space;
    const ExploreOptions &options;
    TraceRecorder *trace;
    MetricsRegistry *metrics;
    Rng rng;
    ResilientEvaluator reval;
    bool deadlineExceeded = false;
};

/**
 * One method's proposal step and the state it learns from; explore()
 * owns everything else. A fresh run calls seed() once; a resuming run
 * calls load() and, if that accepts the snapshot, resume(). Then step()
 * runs once per outer step while budgetUsed() is under
 * ExploreOptions::trials, and save() adds to every snapshot.
 */
class SearchPolicy
{
  public:
    explicit SearchPolicy(SearchRun &run) : run_(run) {}
    SearchPolicy(const SearchPolicy &) = delete;
    SearchPolicy &operator=(const SearchPolicy &) = delete;
    virtual ~SearchPolicy() = default;

    /** Seed H on a fresh run; by default the shared warmup batch. */
    virtual void seed();
    /** Load the policy's part of a snapshot before the shared state is
     *  restored; false rejects the snapshot and the run starts fresh. */
    virtual bool load(const CheckpointState &) { return true; }
    /** Rebuild state derived from H once the shared state is restored. */
    virtual void resume(const CheckpointState &) {}
    /** Budget spent before outer step `trial`, traced as budgetKey(). */
    virtual int budgetUsed(int trial) const { return trial; }
    virtual const char *budgetKey() const { return "trial"; }
    /** Propose and measure one outer step; false ends the run. */
    virtual bool step(int trial) = 0;
    /** Add the policy's own state to a snapshot. */
    virtual void save(CheckpointState &) const {}

  protected:
    SearchRun &run_;
};

bool
costModelReady(const ExploreOptions &options)
{
    return options.costModel != nullptr && options.costModel->ready();
}

/** Model-guided pruning is on and has a trained model to score with. */
bool
pruningActive(const ExploreOptions &options)
{
    return options.prunerKeep > 0.0 && costModelReady(options);
}

/** Candidates kept out of `n`: the prunerKeep fraction, >= minKeep. */
size_t
keepCount(const ExploreOptions &options, size_t n, size_t minKeep = 1)
{
    return std::max(minKeep,
                    static_cast<size_t>(std::ceil(
                        options.prunerKeep * static_cast<double>(n))));
}

/** Stable-sort `points` by descending score (ties keep their order). */
void
rankPoints(std::vector<Point> &points,
           const std::function<double(const Point &)> &score)
{
    std::vector<double> scores(points.size());
    std::vector<size_t> order(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        scores[i] = score(points[i]);
        order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return scores[a] > scores[b];
    });
    std::vector<Point> ranked;
    ranked.reserve(points.size());
    for (size_t i : order)
        ranked.push_back(std::move(points[i]));
    points.swap(ranked);
}

/** rankPoints() by the persistent cost model's prediction. */
void
rankByCostModel(SearchRun &run, std::vector<Point> &points)
{
    std::vector<double> feat;
    rankPoints(points, [&](const Point &p) {
        run.eval.costFeaturesFor(p, feat);
        return run.options.costModel->predict(feat);
    });
}

/**
 * Keep the top keepCount(minKeep) of `points` and log the cut. Unless
 * `ranked` says they already are in rank order, the points are first
 * ranked by the persistent model — only when the cut drops any.
 */
void
pruneCandidates(SearchRun &run, std::vector<Point> &points,
                size_t minKeep = 1, bool ranked = false)
{
    const size_t n = points.size();
    const size_t keep = keepCount(run.options, n, minKeep);
    if (keep >= n)
        return;
    if (!ranked)
        rankByCostModel(run, points);
    points.resize(keep);
    if (run.trace) {
        run.trace->point("costmodel.prune", run.eval.simulatedSeconds(),
                         {tint("considered", static_cast<int64_t>(n)),
                          tint("kept", static_cast<int64_t>(keep))});
    }
    if (run.metrics) {
        run.metrics->counter("costmodel.prune.kept").add(keep);
        run.metrics->counter("costmodel.prune.dropped").add(n - keep);
    }
}

/** Seed H with random points so SA has something to choose from. */
void
SearchPolicy::seed()
{
    // One parallel measurement batch: seeds, random warmup, and the
    // deterministic initial point, committed in that order.
    const ExploreOptions &options = run_.options;
    std::vector<Point> points = options.seedPoints;
    points.reserve(points.size() + options.warmupPoints + 1);
    if (costModelReady(options) && options.warmupPoints > 0) {
        // Model warm-start: oversample random candidates, rank them
        // with the persistent model, and seed from the top-ranked
        // subset instead of the raw draws. The extra RNG draws only
        // happen with a model attached, so model-off runs keep their
        // pinned digests.
        std::vector<Point> cands;
        for (int i = 0; i < 4 * options.warmupPoints; ++i)
            cands.push_back(run_.space.randomPoint(run_.rng));
        rankByCostModel(run_, cands);
        for (int i = 0; i < options.warmupPoints; ++i)
            points.push_back(std::move(cands[i]));
        if (run_.trace) {
            run_.trace->point(
                "costmodel.warm_start", run_.eval.simulatedSeconds(),
                {tint("candidates", static_cast<int64_t>(cands.size())),
                 tint("kept", options.warmupPoints)});
        }
        if (run_.metrics)
            run_.metrics->counter("costmodel.warmstarts").add();
    } else {
        for (int i = 0; i < options.warmupPoints; ++i)
            points.push_back(run_.space.randomPoint(run_.rng));
    }
    points.push_back(run_.space.initialPoint());
    if (run_.trace) {
        run_.trace->begin(
            "warmup", run_.eval.simulatedSeconds(),
            {tint("points", static_cast<int64_t>(points.size()))});
    }
    run_.reval.evaluate(points);
    if (run_.trace)
        run_.trace->end("warmup", run_.eval.simulatedSeconds());
    if (run_.metrics)
        run_.metrics->counter("explore.warmup_points").add(points.size());
}

// ---------------------------------------------------------------------
// Q-method: the paper's contribution.

/** One replay-buffer record: (state, action, next-state, reward). The
 *  points are kept alongside the features so the buffer can be
 *  checkpointed as coordinates and rebuilt exactly on resume. */
struct Transition
{
    Point start;
    Point next;
    std::vector<float> stateFeatures;
    int direction;
    std::vector<float> nextFeatures;
    float reward;
};

std::vector<float>
toFloat(const std::vector<double> &v)
{
    return std::vector<float>(v.begin(), v.end());
}

/**
 * SA starting points, then one direction per start chosen by a
 * Q-learning network trained online from a replay buffer.
 */
class QPolicy final : public SearchPolicy
{
  public:
    explicit QPolicy(SearchRun &run)
        : SearchPolicy(run),
          featureDim_(run.space.featureDim()),
          numDirs_(run.space.numDirections()),
          chooser_(run.options.saGamma),
          order_(numDirs_),
          forwardCounter_(maybeCounter(run.metrics, "q.forward_passes")),
          trainCounter_(maybeCounter(run.metrics, "q.train_rounds")),
          initReusedCounter_(run.options.obs.wallProfile
                                 ? maybeCounter(run.metrics, "q.init.reused")
                                 : nullptr),
          forwardTimer_(run.options.obs, "q.forward_batch.ns"),
          initTimer_(run.options.obs, "q.init.ns"),
          trainTimer_(run.options.obs, "q.train.ns")
    {
        // At most one transition lands per start per trial; cap the
        // reserve so a huge trial budget cannot pre-claim unbounded
        // memory.
        replay_.reserve(std::min<size_t>(
            static_cast<size_t>(std::max(run.options.trials, 0)) *
                static_cast<size_t>(std::max(run.options.startingPoints, 1)),
            size_t(1) << 16));
    }

    /** Warmup draws come before network init (fixed RNG order). */
    void seed() override
    {
        SearchPolicy::seed();
        if (!netX_)
            initNets();
    }

    bool load(const CheckpointState &state) override
    {
        initNets();
        if (!netX_->restoreCheckpointState(state.netState)) {
            warn("checkpoint network shape mismatch; starting fresh");
            return false;
        }
        return true;
    }

    /** Features and rewards are recomputed from the restored H (all
     *  cache hits). */
    void resume(const CheckpointState &state) override
    {
        for (const ReplayTransition &r : state.replay) {
            Transition t;
            t.start = Point{r.start};
            t.next = Point{r.next};
            t.direction = r.direction;
            t.stateFeatures = toFloat(run_.space.features(t.start));
            t.nextFeatures = toFloat(run_.space.features(t.next));
            double e_start = run_.eval.evaluate(t.start);
            double e_next = run_.eval.evaluate(t.next);
            t.reward = static_cast<float>((e_next - e_start) /
                                          std::max(e_start, 1e-9));
            replay_.push_back(std::move(t));
        }
    }

    bool step(int trial) override
    {
        propose(chooser_.chooseMany(run_.eval, run_.rng,
                                    run_.options.startingPoints));
        // Periodic online training of the Q-network.
        if ((trial + 1) % run_.options.trainEvery == 0 && !replay_.empty())
            train();
        return true;
    }

    void save(CheckpointState &state) const override
    {
        state.netState = netX_->checkpointState();
        state.replay.reserve(replay_.size());
        for (const Transition &t : replay_)
            state.replay.push_back({t.start.idx, t.direction, t.next.idx});
    }

  private:
    /** Section 5.1: four fully-connected layers with ReLU, online
     *  training with AdaDelta. The paper's target network Y is synced
     *  from X after every training step and X changes only there, so Y
     *  always equals X when read and X stands in for it. Runs of one
     *  request often reach this point in the same generator state with
     *  the same dims; the init memo then skips the draws. */
    void initNets()
    {
        WallMark mark = initTimer_.start();
        bool reused = false;
        netX_.emplace(initMlpMemoized({featureDim_, kHidden, kHidden,
                                       kHidden, numDirs_},
                                      run_.rng, &reused));
        initTimer_.lap(mark);
        if (initReusedCounter_ && reused)
            initReusedCounter_->add();
    }

    /** Batched direction inference: every start's feature row is
     *  decoded into one matrix and the Q-network runs a single blocked
     *  pass over it. Features and the network are fixed within a
     *  trial, so the per-row results are bit-identical to per-start
     *  forward() calls. */
    const float *forwardBatch(const std::vector<Point> &starts)
    {
        const int m = static_cast<int>(starts.size());
        if (run_.trace) {
            run_.trace->begin("q_forward_batch",
                              run_.eval.simulatedSeconds(),
                              {tint("starts", m)});
        }
        WallMark mark = forwardTimer_.start(run_.trace);
        batchFeat_.resize(static_cast<size_t>(m) * featureDim_);
        for (int s = 0; s < m; ++s) {
            run_.space.featuresInto(starts[s], decodeScratch_, featD_);
            float *row = batchFeat_.data() +
                         static_cast<size_t>(s) * featureDim_;
            for (int i = 0; i < featureDim_; ++i)
                row[i] = static_cast<float>(featD_[i]);
        }
        const float *q =
            m > 0 ? netX_->forwardBatch(batchFeat_.data(), m, netScratch_)
                  : nullptr;
        const int64_t ns = forwardTimer_.lap(mark);
        if (run_.trace) {
            run_.trace->end("q_forward_batch", run_.eval.simulatedSeconds(),
                            {}, mark.nsField(ns));
        }
        if (forwardCounter_)
            forwardCounter_->add(static_cast<uint64_t>(m));
        return q;
    }

    /**
     * Index into candDirs_/candPoints_ of the move to measure from
     * `start`, or -1 when every move is visited: the first unvisited
     * direction in order_. With pruning on, the persistent model
     * re-ranks the top prunerKeep fraction of the unvisited moves and
     * its argmax is measured instead.
     */
    int chooseMove(const Point &start)
    {
        const bool prune = pruningActive(run_.options);
        candDirs_.clear();
        candPoints_.clear();
        for (int d : order_) {
            auto next = run_.space.move(start, d);
            if (!next || run_.eval.known(next->key64()))
                continue;
            candDirs_.push_back(d);
            candPoints_.push_back(std::move(*next));
            if (!prune)
                break;
        }
        if (candPoints_.empty())
            return -1;
        if (!prune)
            return 0;
        const size_t consider = keepCount(run_.options, candPoints_.size());
        size_t best = 0;
        double best_score = 0.0;
        for (size_t i = 0; i < consider; ++i) {
            run_.eval.costFeaturesFor(candPoints_[i], pruneFeat_);
            double score = run_.options.costModel->predict(pruneFeat_);
            if (i == 0 || score > best_score) {
                best_score = score;
                best = i;
            }
        }
        if (run_.trace) {
            run_.trace->point(
                "costmodel.prune", run_.eval.simulatedSeconds(),
                {tint("considered", static_cast<int64_t>(consider)),
                 tint("kept", 1)});
        }
        if (run_.metrics) {
            run_.metrics->counter("costmodel.prune.kept").add(1);
            run_.metrics->counter("costmodel.prune.dropped")
                .add(consider - 1);
        }
        return static_cast<int>(best);
    }

    /** One epsilon-greedy move per start, measured and recorded. */
    void propose(const std::vector<Point> &starts)
    {
        const float *batch_q = forwardBatch(starts);
        for (size_t s = 0; s < starts.size(); ++s) {
            const Point &start = starts[s];
            const float *q = batch_q + s * numDirs_;

            // Rank directions by predicted Q-value; epsilon-greedy.
            for (int d = 0; d < numDirs_; ++d)
                order_[d] = d;
            const bool greedy = !run_.rng.chance(kEpsilon);
            if (!greedy) {
                run_.rng.shuffle(order_);
            } else {
                std::sort(order_.begin(), order_.end(),
                          [&](int a, int b) { return q[a] > q[b]; });
            }

            const int c = chooseMove(start);
            if (c < 0)
                continue;
            const int d = candDirs_[c];
            const Point &next = candPoints_[c];
            double e_start = run_.eval.evaluate(start);
            double e_next = run_.reval.evaluate(next, next.key64());
            float reward = static_cast<float>((e_next - e_start) /
                                              std::max(e_start, 1e-9));
            const float *feat_row = batchFeat_.data() + s * featureDim_;
            run_.space.featuresInto(next, decodeScratch_, featD_);
            replay_.push_back(
                {start, next,
                 std::vector<float>(feat_row, feat_row + featureDim_), d,
                 toFloat(featD_), reward});
            if (run_.trace) {
                run_.trace->point("q_step", run_.eval.simulatedSeconds(),
                                  {tstr("key", next.key()), tint("dir", d),
                                   treal("reward", reward),
                                   tbool("greedy", greedy)});
            }
        }
    }

    /** One AdaDelta step of X on a replay sample. */
    void train()
    {
        if (run_.trace)
            run_.trace->begin("q_train", run_.eval.simulatedSeconds());
        WallMark mark = trainTimer_.start(run_.trace);
        netX_->zeroGrad();
        const int batch =
            std::min<int>(kReplayBatch, static_cast<int>(replay_.size()));
        // Pre-draw the replay sample (nothing between the draws consumes
        // randomness), then run the network over the whole sample's
        // next states in one blocked pass.
        std::vector<const Transition *> sample(batch);
        for (int b = 0; b < batch; ++b)
            sample[b] = &replay_[run_.rng.index(replay_.size())];
        std::vector<float> next_feat(static_cast<size_t>(batch) *
                                     featureDim_);
        for (int b = 0; b < batch; ++b) {
            std::copy(sample[b]->nextFeatures.begin(),
                      sample[b]->nextFeatures.end(),
                      next_feat.begin() +
                          static_cast<size_t>(b) * featureDim_);
        }
        const float *next_q_all =
            netX_->forwardBatch(next_feat.data(), batch, netScratch_);
        std::vector<float> targets(batch);
        for (int b = 0; b < batch; ++b) {
            const float *row =
                next_q_all + static_cast<size_t>(b) * numDirs_;
            // First-largest scan: same element as std::max_element.
            float max_next = row[0];
            for (int d = 1; d < numDirs_; ++d) {
                if (row[d] > max_next)
                    max_next = row[d];
            }
            targets[b] = static_cast<float>(kQAlpha) * max_next +
                         sample[b]->reward;
        }
        // One batched gradient pass: forward runs once over the sample
        // lanes, gradients accumulate in index order — the same values
        // a per-sample accumulateGrad loop produces.
        std::vector<float> state_feat(static_cast<size_t>(batch) *
                                      featureDim_);
        std::vector<int> actions(batch);
        for (int b = 0; b < batch; ++b) {
            std::copy(sample[b]->stateFeatures.begin(),
                      sample[b]->stateFeatures.end(),
                      state_feat.begin() +
                          static_cast<size_t>(b) * featureDim_);
            actions[b] = sample[b]->direction;
        }
        netX_->accumulateGradBatch(state_feat.data(), batch, actions.data(),
                                   targets.data(), netScratch_);
        netX_->step();
        const int64_t ns = trainTimer_.lap(mark);
        if (run_.trace) {
            run_.trace->end("q_train", run_.eval.simulatedSeconds(),
                            {tint("batch", batch)}, mark.nsField(ns));
        }
        if (trainCounter_)
            trainCounter_->add();
    }

    const int featureDim_;
    const int numDirs_;
    SaChooser chooser_;
    std::optional<Mlp> netX_;
    std::vector<Transition> replay_;

    // Reused hot-loop buffers: the per-step feature batch (row-major
    // starts x featureDim_), the decode scratch feeding it, the network
    // scratch, the direction ranking, and the unvisited moves.
    DecodeScratch decodeScratch_;
    std::vector<double> featD_;
    std::vector<float> batchFeat_;
    MlpScratch netScratch_;
    std::vector<int> order_;
    std::vector<int> candDirs_;
    std::vector<Point> candPoints_;
    std::vector<double> pruneFeat_;

    Counter *forwardCounter_;
    Counter *trainCounter_;
    Counter *initReusedCounter_; ///< null unless obs.wallProfile
    StageTimer forwardTimer_, initTimer_, trainTimer_;
};

// ---------------------------------------------------------------------
// Section 6.5 baselines.

/** P-method: SA starting points, then every direction of each start. */
class PMethodPolicy final : public SearchPolicy
{
  public:
    explicit PMethodPolicy(SearchRun &run)
        : SearchPolicy(run), chooser_(run.options.saGamma)
    {
        // Reused across starts; a neighborhood holds at most num_dirs.
        neighborhood_.reserve(run.space.numDirections());
    }

    bool step(int) override
    {
        for (const Point &start : chooser_.chooseMany(
                 run_.eval, run_.rng, run_.options.startingPoints)) {
            if (run_.shouldStop())
                break;
            // Measure the full neighborhood of the starting point as one
            // parallel batch (early-stop granularity is a whole
            // neighborhood, matching batched measurement).
            neighborhood_.clear();
            for (int d = 0; d < run_.space.numDirections(); ++d) {
                auto next = run_.space.move(start, d);
                if (next && !run_.eval.known(*next))
                    neighborhood_.push_back(std::move(*next));
            }
            // Pruned mode simulates only the model's top fraction of
            // the neighborhood instead of every direction.
            if (pruningActive(run_.options))
                pruneCandidates(run_, neighborhood_);
            run_.reval.evaluate(neighborhood_);
        }
        return true;
    }

  private:
    SaChooser chooser_;
    std::vector<Point> neighborhood_;
};

/** Random search: one uniform draw per step; no warmup, no overhead. */
class RandomPolicy final : public SearchPolicy
{
  public:
    using SearchPolicy::SearchPolicy;

    void seed() override
    {
        for (const Point &p : run_.options.seedPoints)
            run_.reval.evaluate(p);
    }

    bool step(int) override
    {
        if (!pruningActive(run_.options)) {
            run_.reval.evaluate(run_.space.randomPoint(run_.rng));
            return true;
        }
        // Pruned random search draws a batch sized so that keeping the
        // prunerKeep fraction measures ~one model-chosen point per
        // trial — same measurement budget, model-guided picks.
        const int n = std::max(
            1, static_cast<int>(std::ceil(1.0 / run_.options.prunerKeep)));
        std::vector<Point> draws;
        for (int i = 0; i < n; ++i)
            draws.push_back(run_.space.randomPoint(run_.rng));
        pruneCandidates(run_, draws);
        run_.reval.evaluate(draws);
        return true;
    }
};

/**
 * AutoTVM: each round ranks a pool of random candidates with a per-run
 * GBT cost model, measures an epsilon-greedy batch from the top, and
 * refits the model on everything measured so far. The budget counts
 * measurements, not rounds.
 */
class AutoTvmPolicy final : public SearchPolicy
{
  public:
    explicit AutoTvmPolicy(SearchRun &run)
        : SearchPolicy(run),
          fitCounter_(maybeCounter(run.metrics, "autotvm.model_fits")),
          fitTimer_(run.options.obs, "autotvm.fit.ns")
    {}

    /** AutoTVM measures from its first round: no warmup, no seeds. */
    void seed() override {}

    /** The per-run GBT is restored, not refit: a refit would draw from
     *  the restored RNG and the resumed run would diverge. */
    bool load(const CheckpointState &state) override
    {
        if (model_.deserialize(state.gbtModel))
            return true;
        warn("checkpoint has no usable AutoTVM cost model; starting fresh");
        return false;
    }

    /** H holds exactly this run's measurements, in commit order. */
    void resume(const CheckpointState &) override
    {
        for (const Evaluated &e : run_.eval.history()) {
            trainX_.push_back(run_.space.features(e.point));
            trainY_.push_back(e.gflops);
        }
        measured_ = static_cast<int>(trainY_.size());
    }

    int budgetUsed(int) const override { return measured_; }
    const char *budgetKey() const override { return "measured"; }

    bool step(int) override
    {
        const ExploreOptions &options = run_.options;
        // Candidate pool: random points ranked by the cost model (pure
        // random before the model has data).
        std::vector<Point> candidates;
        for (int i = 0; i < kPool; ++i) {
            Point p = run_.space.randomPoint(run_.rng);
            if (!run_.eval.known(p))
                candidates.push_back(std::move(p));
        }
        if (candidates.empty())
            return false;
        if (model_.trained()) {
            rankPoints(candidates, [&](const Point &p) {
                run_.space.featuresInto(p, decodeScratch_, feat_);
                return model_.predict(feat_);
            });
        } else if (costModelReady(options)) {
            // Cold rounds: the per-run GBT has no data yet, so the
            // persistent model ranks the pool instead of leaving it in
            // random order.
            rankByCostModel(run_, candidates);
        }
        // With pruning on, epsilon-greedy only draws from the ranked
        // top fraction of the pool (never fewer than one batch).
        if (pruningActive(options))
            pruneCandidates(run_, candidates, kBatch, /*ranked=*/true);

        // Epsilon-greedy batch: mostly top-ranked, some random. Picks
        // are selected first, then measured as one parallel batch; the
        // selection's RNG stream and the resulting H match the
        // point-at-a-time equivalent exactly.
        const int take =
            std::min<int>(kBatch, static_cast<int>(candidates.size()));
        std::vector<Point> picks;
        std::unordered_set<PointKey> picked_keys;
        for (int i = 0;
             i < take &&
             measured_ + static_cast<int>(picks.size()) < options.trials;
             ++i) {
            size_t pick = i;
            if (run_.rng.chance(kEpsilon))
                pick = run_.rng.index(candidates.size());
            const Point &p = candidates[pick];
            const PointKey key = p.key64();
            if (run_.eval.known(key) || !picked_keys.insert(key).second)
                continue;
            picks.push_back(p);
        }
        std::vector<double> values = run_.reval.evaluate(picks);
        for (size_t i = 0; i < picks.size(); ++i) {
            trainX_.push_back(run_.space.features(picks[i]));
            trainY_.push_back(values[i]);
        }
        measured_ += static_cast<int>(picks.size());

        // Refit the cost model on everything measured so far.
        if (run_.trace) {
            run_.trace->begin("model_fit", run_.eval.simulatedSeconds(),
                              {tint("samples", static_cast<int64_t>(
                                                   trainX_.size()))});
        }
        WallMark mark = fitTimer_.start();
        model_.fit(trainX_, trainY_, GbtOptions{}, run_.rng);
        fitTimer_.lap(mark);
        run_.eval.chargeOverhead(kModelOverhead);
        if (run_.trace)
            run_.trace->end("model_fit", run_.eval.simulatedSeconds());
        if (fitCounter_)
            fitCounter_->add();
        return true;
    }

    void save(CheckpointState &state) const override
    {
        state.gbtModel = model_.serialize();
    }

  private:
    static constexpr int kBatch = 8;              // measured per round
    static constexpr int kPool = 96;              // ranked per round
    static constexpr double kModelOverhead = 2.0; // s per round: fit+rank

    GbtModel model_;
    std::vector<std::vector<double>> trainX_;
    std::vector<double> trainY_;
    int measured_ = 0;
    DecodeScratch decodeScratch_;
    std::vector<double> feat_;
    Counter *fitCounter_;
    StageTimer fitTimer_;
};

// ---------------------------------------------------------------------
// The driver.

std::unique_ptr<SearchPolicy>
makePolicy(Method method, SearchRun &run)
{
    switch (method) {
      case Method::QMethod: return std::make_unique<QPolicy>(run);
      case Method::PMethod: return std::make_unique<PMethodPolicy>(run);
      case Method::Random: return std::make_unique<RandomPolicy>(run);
      case Method::AutoTvm: return std::make_unique<AutoTvmPolicy>(run);
    }
    panic("unknown exploration method");
}

/** Load the checkpoint named by the options if it belongs to this run. */
std::optional<CheckpointState>
loadCompatible(const ExploreOptions &options, const std::string &method,
               const Evaluator &eval)
{
    if (options.checkpointPath.empty())
        return std::nullopt;
    auto state = loadCheckpoint(options.checkpointPath);
    if (!state)
        return std::nullopt;
    if (!checkpointCompatible(*state, method, options.seed, eval) ||
        state->trial > options.trials) {
        warn("checkpoint ", options.checkpointPath,
             " belongs to a different run; starting fresh");
        return std::nullopt;
    }
    return state;
}

/** Snapshot after finishing trial `trial` when the period says so. */
void
maybeSnapshot(SearchRun &run, const SearchPolicy &policy,
              const std::string &method, int trial)
{
    const ExploreOptions &options = run.options;
    if (options.checkpointPath.empty() ||
        options.checkpointEveryTrials <= 0 ||
        (trial + 1) % options.checkpointEveryTrials != 0) {
        return;
    }
    CheckpointState state = captureCommon(method, options.seed, trial + 1,
                                          run.eval, run.rng, run.reval);
    policy.save(state);
    if (run.trace) {
        run.trace->begin("checkpoint_save", run.eval.simulatedSeconds(),
                         {tint("trial", trial + 1)});
    }
    bool saved = saveCheckpoint(options.checkpointPath, state);
    if (run.trace) {
        run.trace->end("checkpoint_save", run.eval.simulatedSeconds(),
                       {tbool("ok", saved)});
    }
    if (run.metrics)
        run.metrics->counter("checkpoint.saves").add();
    if (!saved)
        warn("could not write checkpoint to ", options.checkpointPath);
}

} // namespace

std::string
methodName(Method method)
{
    switch (method) {
      case Method::QMethod: return "Q-method";
      case Method::PMethod: return "P-method";
      case Method::Random: return "random";
      case Method::AutoTvm: return "AutoTVM";
    }
    return "?";
}

ExploreResult
explore(Method method, Evaluator &eval, const ExploreOptions &options)
{
    SearchRun run(eval, options);
    std::unique_ptr<SearchPolicy> policy = makePolicy(method, run);
    const std::string name = methodName(method);
    Counter *step_counter = maybeCounter(run.metrics, "explore.steps");

    // The checkpoint is read before anything draws from the RNG, and
    // the restored RNG state overwrites every draw load() makes.
    int start_trial = 0;
    bool resumed = false;
    std::optional<CheckpointState> ckpt =
        loadCompatible(options, name, eval);
    if (ckpt && policy->load(*ckpt)) {
        restoreCommon(*ckpt, eval, run.rng, run.reval);
        policy->resume(*ckpt);
        start_trial = ckpt->trial;
        resumed = true;
        inform("resumed ", name, " run at trial ", start_trial, " from ",
               options.checkpointPath);
    } else {
        policy->seed();
    }

    for (int trial = start_trial;
         policy->budgetUsed(trial) < options.trials; ++trial) {
        if (run.shouldStop())
            break;
        if (run.trace) {
            run.trace->begin(
                "step", eval.simulatedSeconds(),
                {tint(policy->budgetKey(), policy->budgetUsed(trial))});
        }
        const bool more = policy->step(trial);
        if (run.trace)
            run.trace->end("step", eval.simulatedSeconds());
        if (!more)
            break;
        if (step_counter)
            step_counter->add();
        maybeSnapshot(run, *policy, name, trial);
    }

    ExploreResult out;
    out.bestPoint = eval.bestPoint();
    out.bestGflops = eval.best();
    out.trialsUsed = eval.numTrials();
    out.simSeconds = eval.simulatedSeconds();
    out.curve = eval.curve();
    out.deadlineExceeded = run.deadlineExceeded;
    out.resumed = resumed;
    out.failures = run.reval.stats().failures;
    out.retries = run.reval.stats().retries;
    out.timeouts = run.reval.stats().timeouts;
    out.quarantined = run.reval.stats().quarantined;
    return out;
}

} // namespace ft
