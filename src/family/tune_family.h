/**
 * @file
 * Shape-family tuning: one exploration run per shape bucket over a
 * single shape-generic space, producing a serve-time dispatch table.
 *
 * Instead of tuning every concrete shape, tuneFamily() builds ONE
 * schedule space from the family's padded upper bound, then reuses the
 * existing explorers per bucket with a FamilyEvaluator that scores each
 * candidate jointly on sampled instances of that bucket. The per-bucket
 * winners become DispatchTable entries; serve-time lookup adapts the
 * winning generic config's dynamic split to the concrete shape. A
 * bucket whose search finds no schedule serving every shape in it
 * falls back to a config that does, or gets no entry at all.
 */
#ifndef FLEXTENSOR_FAMILY_TUNE_FAMILY_H
#define FLEXTENSOR_FAMILY_TUNE_FAMILY_H

#include <memory>
#include <vector>

#include "analysis/verify/certificate.h"
#include "explore/tuner.h"
#include "family/dispatch.h"
#include "family/family.h"
#include "family/family_eval.h"

namespace ft {

/** Options for one family tuning run. */
struct FamilyTuneOptions
{
    /** As TuneOptions::method: Method::AutoTvm searches the
     *  template-restricted space. */
    Method method = Method::QMethod;
    ExploreOptions explore;
    /** Shape instances jointly scored per bucket (>= 1). */
    int samplesPerBucket = 2;
    /**
     * Certify each bucket's winning generic schedule at the bucket's
     * representative (upper) shape — including the FT-DEP-005 guard
     * exactness proof for its imperfect tiles — and attach the result
     * to the bucket report. Read-only over the search.
     */
    bool certify = false;
};

/** Outcome of tuning one bucket of a family. */
struct FamilyBucketReport
{
    ShapeBucket bucket;
    OpConfig config;           ///< best generic schedule for the bucket
    /** `config` passes the verifier and device model at every shape of
     *  the bucket; only valid buckets get a dispatch entry. */
    bool valid = false;
    /** The search found no valid config, and `config` is the expert
     *  config at the bucket's upper shape, which is valid. */
    bool fallback = false;
    double familyGflops = 0.0; ///< joint score over sampled instances
    /** Modeled GFLOPS at the bucket's representative (upper) shape. */
    double repGflops = 0.0;
    int trials = 0;
    double simSeconds = 0.0;
    /** Legality certificate at the representative shape (null unless
     *  FamilyTuneOptions::certify). */
    std::shared_ptr<const verify::ScheduleCertificate> certificate;
};

/** Outcome of one tuneFamily() run. */
struct FamilyTuneReport
{
    DispatchTable table; ///< the valid buckets' entries
    std::vector<FamilyBucketReport> buckets;
    int totalTrials = 0;
    double simSeconds = 0.0;
    double spaceSize = 0.0;
    std::string device;
};

/** Tune every bucket of `family` for `target`. */
FamilyTuneReport tuneFamily(const ShapeFamily &family, const Target &target,
                            const FamilyTuneOptions &options = {});

/**
 * Modeled GFLOPS of one concrete shape under a generic config (the
 * dynamic split re-fit to the shape's extent), or 0 when the schedule
 * is gated by the verifier or rejected by the device model. Used for
 * dispatch-vs-dedicated comparisons.
 */
double instanceGflopsFor(const ShapeFamily &family, const OpConfig &generic,
                         int64_t shape, const Target &target);

/**
 * Certify one concrete instance of a generic config: the dynamic split
 * is re-fit to `shape`, the instance anchor lowered, and the full
 * obligation set of certifySchedule() discharged — for imperfectly
 * tiled instances this is the guard-exactness proof (FT-DEP-005) the
 * bounds prover's "declared guarded axes" clamp used to take on trust.
 */
verify::ScheduleCertificate certifyFamilyInstance(const ShapeFamily &family,
                                                  const OpConfig &generic,
                                                  int64_t shape,
                                                  const Target &target);

} // namespace ft

#endif // FLEXTENSOR_FAMILY_TUNE_FAMILY_H
