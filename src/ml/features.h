/**
 * @file
 * Shape-normalized schedule features for the persistent cost model.
 *
 * Unlike ScheduleSpace::features() — whose layout depends on the knob
 * set of one concrete space — this vector has a fixed dimensionality
 * and meaning across operators, shapes, and targets: every slot is a
 * log- or ratio-scaled property of the *lowered* nest (tile extents by
 * annotation, reuse proxies, roofline terms against the target's tier
 * model, the generator's resource features). That stability is what
 * lets one GBT rank candidates for workloads it has never tuned.
 */
#ifndef FLEXTENSOR_ML_FEATURES_H
#define FLEXTENSOR_ML_FEATURES_H

#include <vector>

#include "schedule/loop_nest.h"
#include "sim/hw_spec.h"

namespace ft {

/** Fixed dimensionality of the cost-model feature vector. */
inline constexpr int kCostFeatureDim = 32;

/**
 * Extract the cost-model features of one lowered schedule into `out`
 * (resized to kCostFeatureDim). Deterministic: depends only on the
 * nest, its generator features, and the target's device model.
 */
void costFeaturesInto(const Scheduled &sched, const Target &target,
                      std::vector<double> &out);

} // namespace ft

#endif // FLEXTENSOR_ML_FEATURES_H
