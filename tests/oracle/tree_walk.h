/**
 * @file
 * Tree-walking reference lowering and verification: the differential
 * oracle of the IndexAnalysis-based production path (tests only).
 */
#ifndef FLEXTENSOR_TESTS_ORACLE_TREE_WALK_H
#define FLEXTENSOR_TESTS_ORACLE_TREE_WALK_H

#include "analysis/verify/diag.h"
#include "schedule/loop_nest.h"
#include "sim/hw_spec.h"

namespace ft {
namespace oracle {

/** generate() as the tree-walking generators computed it. */
Scheduled lower(const Operation &anchor, const OpConfig &config,
                const Target &target);

/** verifyScheduleInto() as the tree-walking passes computed it. */
void check(const Scheduled &s, const Target &target, const OpConfig *config,
           verify::DiagReport &out);

} // namespace oracle
} // namespace ft

#endif // FLEXTENSOR_TESTS_ORACLE_TREE_WALK_H
