/**
 * @file
 * Gradient-boosted regression trees.
 *
 * A compact reimplementation of the XGBoost-style cost model the AutoTVM
 * baseline uses (Section 6.5): least-squares boosting over depth-limited
 * regression trees with greedy threshold splits. The same ensemble also
 * carries the persistent cost model's pairwise rank objective (fitRank)
 * and a hexfloat text serialization whose round-trip reproduces
 * bit-identical predictions.
 */
#ifndef FLEXTENSOR_ML_GBT_H
#define FLEXTENSOR_ML_GBT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ft {

class Rng;

/**
 * GBT hyperparameters. The tree shape and shrinkage are fixed: depth 4,
 * learning rate 0.3, at least 2 samples per leaf, and 8 random
 * threshold probes per feature and node.
 */
struct GbtOptions
{
    int trees = 40;
};

/** A boosted ensemble of regression trees over dense double features. */
class GbtModel
{
  public:
    /** Fit from scratch on the given dataset (replaces any prior fit). */
    void fit(const std::vector<std::vector<double>> &x,
             const std::vector<double> &y, const GbtOptions &options,
             Rng &rng);

    /**
     * Fit with a pairwise rank objective (replaces any prior fit): each
     * boosting round fits a tree to the lambda gradients of the pairwise
     * logistic loss over all (better, worse) pairs *within one group*.
     * Groups separate incomparable label scales (different workloads in
     * the persistent cost model); samples in different groups never form
     * a pair. Predictions are ranking scores, not label estimates.
     */
    void fitRank(const std::vector<std::vector<double>> &x,
                 const std::vector<double> &y,
                 const std::vector<uint64_t> &group,
                 const GbtOptions &options, Rng &rng);

    /** Predicted value; returns the training mean before any boosting. */
    double predict(const std::vector<double> &x) const;

    /** True once fit() has been called with at least one sample. */
    bool trained() const { return trained_; }

    /**
     * Text serialization of the whole ensemble. Every real number is
     * written as a hexfloat, so deserialize() reconstructs a model whose
     * predict() is bit-identical to the original on every input.
     */
    std::string serialize() const;

    /** Rebuild from serialize() output; false on malformed input or a
     *  learning rate other than the fixed 0.3 (the model is left
     *  untrained). */
    bool deserialize(std::string_view bytes);

  private:
    /** Back to the untrained, empty model deserialize() starts from. */
    void reset();

    struct Node
    {
        int feature = -1;   ///< -1 for leaves
        double threshold = 0.0;
        double value = 0.0; ///< leaf prediction
        int left = -1, right = -1;
    };
    struct Tree
    {
        std::vector<Node> nodes;
        double eval(const std::vector<double> &x) const;
    };

    /** Shared boosting loop over a caller-supplied residual function. */
    void boost(const std::vector<std::vector<double>> &x,
               const std::vector<double> &y,
               const std::vector<uint64_t> *group,
               const GbtOptions &options, Rng &rng);

    Tree buildTree(const std::vector<std::vector<double>> &x,
                   const std::vector<double> &residual,
                   const std::vector<int> &rows, Rng &rng) const;
    int buildNode(Tree &tree, const std::vector<std::vector<double>> &x,
                  const std::vector<double> &residual,
                  const std::vector<int> &rows, int depth, Rng &rng) const;

    double bias_ = 0.0;
    std::vector<Tree> trees_;
    bool trained_ = false;
};

} // namespace ft

#endif // FLEXTENSOR_ML_GBT_H
