/**
 * @file
 * Back-end exploration (Section 5.1 and Section 6.5): one search loop
 * with four proposal policies.
 *
 * The loop picks starting points from the evaluated set H, proposes
 * moves, measures them and learns. The methods differ only in the
 * proposal step:
 *
 *  - Q-method: the paper's contribution — SA starting points plus a
 *    Q-learning network that predicts the single best direction to try.
 *  - P-method: SA starting points, but *every* direction of each start is
 *    evaluated (the exhaustive-neighborhood baseline of Section 6.5).
 *  - Random search: uniform sampling (ablation baseline).
 *  - AutoTVM baseline: template-restricted space + gradient-boosted-tree
 *    cost model with batched epsilon-greedy measurement (Section 6.5).
 *
 * All methods share the Evaluator, so trial counts and the simulated
 * exploration clock are directly comparable.
 */
#ifndef FLEXTENSOR_EXPLORE_EXPLORER_H
#define FLEXTENSOR_EXPLORE_EXPLORER_H

#include <functional>
#include <string>
#include <vector>

#include "explore/evaluator.h"
#include "explore/resilient.h"
#include "obs/obs.h"

namespace ft {

class CostModel;

/** Which exploration method to run. */
enum class Method { QMethod, PMethod, Random, AutoTvm };

/** Human-readable method name. */
std::string methodName(Method method);

/** Options shared by the exploration methods. */
struct ExploreOptions
{
    int trials = 120;         ///< exploration steps (per-method meaning)
    int startingPoints = 4;   ///< SA starting points per step
    int warmupPoints = 16;    ///< random seeds placed into H up front
    double saGamma = 2.0;     ///< SA selection temperature
    int trainEvery = 5;       ///< Q-network update period (paper: 5)
    uint64_t seed = 0xf1e27;
    /** Known-good points evaluated before exploration starts. */
    std::vector<Point> seedPoints;
    /** Stop early once best() reaches this value (0 = run all trials). */
    double targetGflops = 0.0;
    /**
     * Optional worker pool for parallel batched measurement (the serve
     * layer's Section 5.2 model). Batched stages (warmup, P-method
     * neighborhoods, AutoTVM measurement rounds) score candidates
     * concurrently but commit them to H in submission order, so results
     * are identical to a sequential run for the same seed. The simulated
     * measurement width is the pool's size, or 1 without a pool.
     */
    ThreadPool *evalPool = nullptr;
    /**
     * Fault-tolerance policy for measurements: retries with backoff,
     * per-trial deadline, repeated-measure median, quarantine. With no
     * injector attached the policy layer is a transparent no-op and
     * results are bit-identical to a run without it.
     */
    ResilienceOptions resilience;
    /**
     * Per-run deadline on the simulated clock (0 = none). A run that
     * reaches it stops and returns its best-so-far result flagged
     * deadlineExceeded instead of blocking until all trials finish.
     */
    double deadlineSimSeconds = 0.0;
    /**
     * Checkpoint file (empty = disabled). The run snapshots its full
     * state every checkpointEveryTrials outer trials (AutoTVM:
     * measurement rounds), and on start resumes from a compatible
     * snapshot at this path (same method, seed, workloadKey and space);
     * a resumed run with the same seed and fault profile is
     * bit-identical to an uninterrupted one. graph::tuneDag and
     * tuneGraph give each search its own file (searchCheckpointPath,
     * explore/checkpoint.h).
     */
    std::string checkpointPath;
    int checkpointEveryTrials = 10;
    /**
     * Persistent learned cost model (not owned; may be null). When
     * attached, every committed measurement is recorded as a training
     * trial, and — once the model is trained — warmup seeds from the
     * model's top-ranked candidates instead of plain random points.
     * Attaching a model changes the RNG draw schedule, so the pinned
     * model-off determinism digests only hold when this is null.
     */
    CostModel *costModel = nullptr;
    /**
     * Model-guided candidate pruning (0 = off): each explorer scores
     * candidate neighborhoods with the cost model and simulates only
     * the top `prunerKeep` fraction (at least one). Requires a trained
     * costModel; ignored without one. Off by default to preserve the
     * model-off determinism digests — the pruned path has its own
     * pinned digest.
     */
    double prunerKeep = 0.0;
    /**
     * Observability sinks (trace timeline + metrics registry; both
     * optional, not owned). Attached to the evaluator at run start so
     * every layer — warmup, SA steps, Q-network, batch evaluation,
     * checkpointing — reports through the same context. Pure
     * observation: results are bit-identical with sinks on or off.
     */
    ObsContext obs;
};

/** Outcome of an exploration run. */
struct ExploreResult
{
    Point bestPoint;
    double bestGflops = 0.0;
    int trialsUsed = 0;          ///< measurements performed
    double simSeconds = 0.0;     ///< simulated exploration time
    /** (simulated seconds, best-so-far GFLOPS) per measurement. */
    std::vector<std::pair<double, double>> curve;
    bool deadlineExceeded = false; ///< run cut short by the deadline
    bool resumed = false;          ///< restored from a checkpoint
    /** Fault-path counters (zero when no faults were injected). */
    uint64_t failures = 0;
    uint64_t retries = 0;
    uint64_t timeouts = 0;
    uint64_t quarantined = 0;
};

/**
 * Run one exploration method over `eval`'s space. AutoTVM is intended
 * to be used with a template-restricted space (see
 * SpaceOptions::templateRestricted).
 */
ExploreResult explore(Method method, Evaluator &eval,
                      const ExploreOptions &options);

} // namespace ft

#endif // FLEXTENSOR_EXPLORE_EXPLORER_H
