/**
 * @file
 * Sub-spaces: one schedule knob each, with neighborhood structure.
 *
 * The paper rearranges the 1D list of schedule choices into a
 * high-dimensional space (Section 4.2): an N-part split of a loop gets
 * N*(N-1) rebalancing directions (move factor mass from part j to part i),
 * and scalar knobs get +/-1 directions. Neighboring points differ in one
 * knob and have similar structure, which is what makes directed search
 * (P-method / Q-method) meaningful.
 */
#ifndef FLEXTENSOR_SPACE_SUBSPACE_H
#define FLEXTENSOR_SPACE_SUBSPACE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "schedule/config.h"

namespace ft {

class Rng;

/** Which config field a sub-space controls. */
enum class KnobRole {
    SpatialSplit,
    ReduceSplit,
    Reorder,
    Fuse,
    Unroll,
    Vectorize,
    CacheAt,
    FpgaBufferRows,
    FpgaPartition
};

/** Base class: a discrete knob with a local direction structure. */
class SubSpace
{
  public:
    SubSpace(KnobRole role, int axis, std::string name)
        : role_(role), axis_(axis), name_(std::move(name))
    {}
    virtual ~SubSpace() = default;

    /** Number of choices for this knob. */
    virtual int64_t size() const = 0;

    /** Number of movement directions within this knob. */
    virtual int numDirections() const = 0;

    /**
     * Neighbor of `idx` along local direction `dir`, or -1 when no such
     * neighbor exists (boundary of the space).
     */
    virtual int64_t move(int64_t idx, int dir) const = 0;

    /** Write the decoded value of choice `idx` into the config. */
    virtual void apply(int64_t idx, OpConfig &config) const = 0;

    KnobRole role() const { return role_; }
    int axis() const { return axis_; }
    const std::string &name() const { return name_; }

  protected:
    KnobRole role_;
    int axis_; ///< loop index for split knobs, -1 otherwise
    std::string name_;
};

/**
 * All divisible splits of a loop into a fixed number of parts.
 * Direction (i, j) multiplies part i by the smallest useful factor taken
 * from part j (the nearest neighbor in that direction).
 */
class SplitSubSpace : public SubSpace
{
  public:
    /**
     * @param pow2_only keep only all-power-of-two factor tuples (used by
     *        the template-restricted AutoTVM baseline space)
     */
    SplitSubSpace(KnobRole role, int axis, int64_t extent, int parts,
                  bool pow2_only = false);

    int64_t size() const override;
    int numDirections() const override;
    int64_t move(int64_t idx, int dir) const override;
    void apply(int64_t idx, OpConfig &config) const override;

    /** The factor tuple of entry `idx`. */
    const std::vector<int64_t> &entry(int64_t idx) const;

    /**
     * Index of the tuple with the whole extent in part `part`, or 0 when
     * that tuple was pruned away.
     */
    int64_t indexOfTrivial(int part) const;

    /**
     * Index of the given factor tuple; -1 if not present (wrong length,
     * not a factorization of the extent, or pruned). A binary search
     * over the sorted entries.
     */
    int64_t indexOf(const std::vector<int64_t> &factors) const;

    int parts() const { return parts_; }

  private:
    int64_t extent_;
    int parts_;
    /** Factor tuples in ascending lexicographic order, the order
     *  factorizations() produces (pruning keeps it); indexOf relies on
     *  it. */
    std::vector<std::vector<int64_t>> entries_;
};

/** A scalar knob over an explicit list of values; directions are +/-1. */
class ChoiceSubSpace : public SubSpace
{
  public:
    ChoiceSubSpace(KnobRole role, std::string name,
                   std::vector<int64_t> values);

    int64_t size() const override;
    int numDirections() const override { return 2; }
    int64_t move(int64_t idx, int dir) const override;
    void apply(int64_t idx, OpConfig &config) const override;

    int64_t value(int64_t idx) const { return values_.at(idx); }

    /** Index holding the given value, or -1 when absent. */
    int64_t indexOfValue(int64_t v) const;

    /** The config field this knob would read back from. */
    int64_t valueFromConfig(const OpConfig &config) const;

  private:
    std::vector<int64_t> values_;
};

} // namespace ft

#endif // FLEXTENSOR_SPACE_SUBSPACE_H
