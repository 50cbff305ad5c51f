/**
 * @file
 * Minimal dense neural network: the Q-value predictor of Section 5.1.
 *
 * The paper's network is four fully-connected layers with ReLU activations,
 * trained online with AdaDelta against a target network (synced after
 * every update, so the explorer reads the network itself in its place).
 * This module implements exactly that: Linear layers with per-parameter
 * AdaDelta state, an Mlp wrapper, and single-output backpropagation
 * (Q-learning updates touch one action's Q-value per sample).
 */
#ifndef FLEXTENSOR_NN_MLP_H
#define FLEXTENSOR_NN_MLP_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ft {

class Rng;

/**
 * Caller-owned working buffers for the batched/scratch Mlp passes.
 * Reusing one of these across calls makes inference and training
 * allocation-free once the buffers have grown to capacity; concurrent
 * callers must each own their own scratch.
 */
struct MlpScratch
{
    std::vector<float> a, b;              ///< ping-pong activation planes
    std::vector<std::vector<float>> acts; ///< per-layer activations (backward)
    std::vector<float> dy, dx;            ///< backward gradient planes
    std::vector<const float *> rows;      ///< nonzero-gradient rows
    std::vector<float> gains;             ///< their gradient values
};

/** A parameter tensor with gradient and AdaDelta accumulators. */
struct Param
{
    std::vector<float> value;
    std::vector<float> grad;
    std::vector<float> accGradSq; ///< E[g^2]
    std::vector<float> accDeltaSq; ///< E[dx^2]

    /** Allocate `n` parameters initialized to zero. */
    void resize(std::size_t n);

    /** Zero the gradient buffer. */
    void zeroGrad();

    /**
     * Apply one AdaDelta update (Zeiler 2012, rho 0.95, eps 1e-6) and
     * clear the gradient.
     */
    void step();
};

/**
 * One fully-connected layer: y = W x + b.
 *
 * The row-major W (`params()`) is the source of truth and the checkpoint
 * layout. forwardBatch() reads a packed transposed copy instead (in x
 * outputs padded to a multiple of 8, zero-filled, with the bias padded
 * the same way), refreshed wherever the values change: construction,
 * step() and restoreState().
 */
class Linear
{
  public:
    Linear(int in_dim, int out_dim, Rng &rng);

    int inDim() const { return inDim_; }
    int outDim() const { return outDim_; }

    /**
     * Scalar forward pass; caches nothing (caller keeps activations).
     * Each output accumulates from the bias, then i ascending, one
     * separate multiply and add per step. This is the reference order
     * every batched path reproduces bit for bit.
     */
    std::vector<float> forward(const std::vector<float> &x) const;

    /** forward() into a caller-owned buffer (y: outDim floats). */
    void forwardInto(const float *x, float *y) const;

    /**
     * Register-blocked batch forward: `x` is m row-major samples
     * (m x inDim), `y` receives m x outDim. A tile keeps 4 samples x 16
     * outputs in registers, 8 output lanes per SIMD register, so 8
     * independent add chains run at once. Every lane still starts from
     * the bias and walks i ascending with a separate multiply and add,
     * so row s of the result is bit-identical to forward(sample s).
     */
    void forwardBatch(const float *x, int m, float *y) const;

    /**
     * Scalar backward pass: given dL/dy and the forward input,
     * accumulate parameter gradients and return dL/dx.
     */
    std::vector<float> backward(const std::vector<float> &dy,
                                const std::vector<float> &x);

    /** backward() into a caller-owned buffer (dx: inDim floats, or
     *  null when no caller reads dL/dx). */
    void backwardInto(const float *dy, const float *x, float *dx);

    /**
     * backwardInto() over m row-major samples (dy: m x outDim, x: m x
     * inDim, dx: m x inDim or null), vectorized across the input index.
     * Every gradient element sees the same sequence of adds as m
     * successive backwardInto() calls: samples ascending for the
     * parameter gradients, outputs ascending for dL/dx.
     */
    void backwardBatch(const float *dy, const float *x, int m, float *dx,
                       MlpScratch &scratch);

    void zeroGrad();
    void step();

    /** Raw parameter tensors {weights, bias} for checkpointing. */
    std::array<const Param *, 2> params() const { return {&w_, &b_}; }

    /**
     * Overwrite every parameter's values and AdaDelta accumulators from
     * `src`, in params() order (value, E[g^2], E[dx^2] per tensor).
     * Returns the number of floats consumed.
     */
    std::size_t restoreState(const float *src);

  private:
    /** Rebuild the packed transposed copy from w_ and b_. */
    void repack();

    int inDim_, outDim_;
    int outPad_; ///< outDim rounded up to a multiple of 8
    Param w_;    ///< row-major (out x in)
    Param b_;
    std::vector<float> packedW_; ///< transposed (in x outPad), zero pad
    std::vector<float> packedB_; ///< bias padded to outPad
};

/**
 * A ReLU MLP: Linear -> ReLU -> ... -> Linear (no activation on output).
 */
class Mlp
{
  public:
    /** dims = {input, hidden..., output}; weights ~ He initialization. */
    Mlp(const std::vector<int> &dims, Rng &rng);

    int inputDim() const;
    int outputDim() const;

    /** Scalar forward pass (Linear::forward per layer) returning the
     *  output vector. */
    std::vector<float> forward(const std::vector<float> &x) const;

    /**
     * Batched forward: `x` is m row-major samples (m x inputDim). The
     * returned pointer (into `scratch`, valid until the next use of it)
     * holds m x outputDim values; row s is bit-identical to
     * forward(sample s). `x` must not alias the scratch buffers.
     */
    const float *forwardBatch(const float *x, int m,
                              MlpScratch &scratch) const;

    /**
     * Accumulate gradients for a single (input, action, target) sample:
     * loss = (output[action] - target)^2. Returns the loss. Runs the
     * scalar forward/backward passes: the reference accumulateGradBatch()
     * reproduces.
     */
    double accumulateGrad(const std::vector<float> &x, int action,
                          float target);

    /** accumulateGrad() reusing caller-owned buffers. */
    double accumulateGrad(const std::vector<float> &x, int action,
                          float target, MlpScratch &scratch);

    /**
     * accumulateGrad() over a whole batch: `x` is m row-major samples,
     * `actions`/`targets` hold one entry per sample. The forward pass
     * runs once through forwardBatch(), then backpropagation runs layer
     * by layer over the whole batch through backwardBatch(). Every
     * gradient element receives its per-sample contributions in sample
     * order, so the parameter gradients (and the returned summed loss)
     * are bit-identical to m successive accumulateGrad() calls.
     */
    double accumulateGradBatch(const float *x, int m, const int *actions,
                               const float *targets, MlpScratch &scratch);

    void zeroGrad();
    void step();

    /**
     * Flatten every parameter's values and AdaDelta accumulators
     * (E[g^2], E[dx^2]) into one vector for checkpointing. Gradients are
     * excluded: training rounds start with zeroGrad().
     */
    std::vector<float> checkpointState() const;

    /** Restore a checkpointState() snapshot; false on a shape mismatch. */
    bool restoreCheckpointState(const std::vector<float> &state);

  private:
    std::vector<Linear> layers_;
};

/**
 * Mlp(dims, rng) through a small, bounded, process-wide memo. He-init
 * output is a pure function of the dims and the complete generator
 * state (the four words, the banked-spare flag and the spare's bits),
 * so a repeat of a memoized (dims, state) pair copies the stored
 * network and sets `rng` to the state the first init left: values,
 * packed copies and the stream continue bit-identically to a fresh
 * init. `*reused` (when non-null) reports whether the memo answered.
 * Safe from any thread: searches on different threads share the memo
 * (a SetupStore of 8 entries), and a search that misses while another
 * draws the same init waits for that draw instead of repeating it.
 */
Mlp initMlpMemoized(const std::vector<int> &dims, Rng &rng,
                    bool *reused = nullptr);

} // namespace ft

#endif // FLEXTENSOR_NN_MLP_H
