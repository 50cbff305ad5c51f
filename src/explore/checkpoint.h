/**
 * @file
 * Checkpoint/resume for tuning runs.
 *
 * A long exploration run is expensive to lose to a crash or an eviction,
 * so the explorers periodically snapshot everything their next step
 * depends on: the evaluated set H with its per-commit simulated clock,
 * the RNG stream position, the resilience counters and quarantine set,
 * for the Q-method the Q-network parameters (values plus AdaDelta
 * accumulators) and the replay buffer (as point/direction triples; the
 * feature vectors and rewards are recomputed from H on resume), and for
 * AutoTVM the per-run GBT cost model (its training set is H).
 *
 * Each snapshot is a versioned line-oriented text body (with a trailing
 * record-count line) carried as one CRC32-framed record in a crash-safe
 * journal (support/journal.h): snapshots append a frame, so a crash
 * mid-write can only tear the in-flight frame, and resume recovers the
 * newest intact snapshot — still bit-identical to an uninterrupted run
 * from that point. Floating-point values round-trip exactly (hexfloat),
 * which is what makes the guarantee hold: a run killed and resumed from
 * its last snapshot produces bit-identical results — history, best
 * point, and simulated clock — to a run that was never interrupted, for
 * the same seed and fault profile.
 */
#ifndef FLEXTENSOR_EXPLORE_CHECKPOINT_H
#define FLEXTENSOR_EXPLORE_CHECKPOINT_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "explore/evaluator.h"
#include "explore/resilient.h"
#include "support/rng.h"

namespace ft {

/** One replay-buffer record as space coordinates (features/rewards are
 *  recomputed from the restored H, so floats never go through text). */
struct ReplayTransition
{
    std::vector<int64_t> start;
    int direction = 0;
    std::vector<int64_t> next;
};

/** Everything a resumed run needs to continue bit-identically. */
struct CheckpointState
{
    std::string method;   ///< methodName() of the writing explorer
    uint64_t seed = 0;    ///< ExploreOptions::seed of the run
    uint64_t workloadKey = 0; ///< Evaluator::workloadKey() of the run
    std::string spaceSig; ///< spaceSignature() of the schedule space
    int trial = 0;        ///< next outer trial index to execute
    double simSeconds = 0.0;
    RngState rng;
    std::vector<Evaluated> history;
    std::vector<double> commitSim; ///< simulated clock at each commit
    ResilienceStats stats;
    /** Quarantined points as space coordinates. */
    std::vector<Point> quarantine;
    /** Q-method only: Mlp::checkpointState() of the online network. */
    std::vector<float> netState;
    /** Q-method only: the replay buffer. */
    std::vector<ReplayTransition> replay;
    /** AutoTVM only: GbtModel::serialize() of the per-run cost model. */
    std::string gbtModel;
};

/** Cheap structural identity of a space ("numSubSpaces/numDirections"). */
std::string spaceSignature(const ScheduleSpace &space);

/** Append a snapshot frame to the checkpoint journal (crash-safe). */
bool saveCheckpoint(const std::string &path, const CheckpointState &state);

/**
 * Load the newest intact snapshot. A torn journal tail is recovered
 * from (and repaired in place) with a loud structured diagnostic.
 * Returns nullopt when the file is missing, corrupt beyond recovery,
 * or from an unknown version (a warning is logged for anything but a
 * missing file — the caller starts fresh).
 */
std::optional<CheckpointState> loadCheckpoint(const std::string &path);

/**
 * Whether a loaded snapshot belongs to this run: same method, seed,
 * workload (the evaluator's anchor and device) and space shape, with
 * every history, replay and quarantine point inside the evaluator's
 * space. The file is outside input, so a snapshot that fails any of
 * these is rejected here rather than trusted by the resumed run.
 */
bool checkpointCompatible(const CheckpointState &state,
                          const std::string &method, uint64_t seed,
                          const Evaluator &eval);

/**
 * The file of one search among several that share a checkpoint path
 * (graph::tuneDag's anchors, tuneGraph's nodes): `<base>.<workloadKey
 * as 16 hex digits>` for the first search of a workload in one call,
 * and `<base>.<key>.<repeat>` for its repeat-th search after that, so
 * no search resumes or overwrites another's snapshot.
 */
std::string searchCheckpointPath(const std::string &base,
                                 uint64_t workloadKey, int repeat);

/** Capture the state every method shares (H, clock, RNG, resilience). */
CheckpointState captureCommon(const std::string &method, uint64_t seed,
                              int nextTrial, const Evaluator &eval,
                              const Rng &rng,
                              const ResilientEvaluator &reval);

/** Restore the shared state onto a fresh run (inverse of captureCommon). */
void restoreCommon(const CheckpointState &state, Evaluator &eval, Rng &rng,
                   ResilientEvaluator &reval);

} // namespace ft

#endif // FLEXTENSOR_EXPLORE_CHECKPOINT_H
