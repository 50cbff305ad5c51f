#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "support/hash.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/setup_store.h"

/**
 * Runtime-dispatched AVX2 clones for the hot kernels. "avx2"
 * deliberately does NOT imply FMA, so the wide clone issues the same
 * separate mul+add (identical IEEE rounding) as the baseline; the build
 * also passes -ffp-contract=off so an -march=native build cannot fuse
 * them either. On non-ELF/x86 builds the macro is a no-op and the
 * default code path is the only one. Sanitizer builds also disable it:
 * target_clones dispatches through a GNU ifunc, whose resolver runs
 * during relocation before the sanitizer runtime is initialized and
 * crashes the process at startup.
 */
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define FT_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define FT_SANITIZED 1
#endif
#endif

#if !defined(FT_SANITIZED) && defined(__x86_64__) && defined(__ELF__) && \
    (defined(__GNUC__) || defined(__clang__))
#define FT_LANE_CLONES __attribute__((target_clones("avx2", "default")))
#define FT_VECTOR_LANES 1
#else
#define FT_LANE_CLONES
#endif

// Kernel helpers must inline into each target clone to be compiled for
// its ISA; an out-of-line copy would only ever run the baseline one.
#if defined(__GNUC__) || defined(__clang__)
#define FT_INLINE inline __attribute__((always_inline))
#else
#define FT_INLINE inline
#endif

namespace ft {

namespace {

/** SIMD width of the kernels: 8 floats, one AVX register. */
constexpr int kLanes = 8;

#ifdef FT_VECTOR_LANES
/**
 * 8 float lanes as a GCC vector: one ymm register in the avx2 clone,
 * two xmm registers in the default one. Lanes only ever live in locals
 * or pass by reference; passing one by value to a function compiled
 * without AVX would change the ABI (-Wpsabi).
 */
typedef float Lanes __attribute__((vector_size(kLanes * sizeof(float))));
#else
/** Portable scalar fallback: the same kernels, one lane at a time. */
struct Lanes
{
    float v[kLanes];

    Lanes &operator+=(const Lanes &o)
    {
        for (int j = 0; j < kLanes; ++j)
            v[j] += o.v[j];
        return *this;
    }
};

inline Lanes
operator*(const Lanes &a, float s)
{
    Lanes out;
    for (int j = 0; j < kLanes; ++j)
        out.v[j] = a.v[j] * s;
    return out;
}
#endif

FT_INLINE void
loadLanes(Lanes &v, const float *p)
{
    std::memcpy(&v, p, sizeof(Lanes));
}

FT_INLINE void
storeLanes(float *p, const Lanes &v)
{
    std::memcpy(p, &v, sizeof(Lanes));
}

/** A layer's packed forward operands (see Linear). */
struct PackedLayer
{
    const float *w;    ///< in x outPad, transposed, zero-padded
    const float *bias; ///< outPad
    int in, out, outPad;
};

/**
 * One forward tile: NS row-major samples x NB lane blocks of outputs
 * starting at o0. Each (sample, output) lane starts from the bias and
 * adds w[i] * x[i] for i ascending, as forwardInto() does.
 */
template <int NS, int NB>
FT_INLINE void
forwardTile(const PackedLayer &p, const float *x, int o0, float *y)
{
    Lanes acc[NS][NB];
    for (int b = 0; b < NB; ++b) {
        Lanes bv;
        loadLanes(bv, p.bias + o0 + b * kLanes);
        for (int s = 0; s < NS; ++s)
            acc[s][b] = bv;
    }
    for (int i = 0; i < p.in; ++i) {
        const float *wi = p.w + static_cast<size_t>(i) * p.outPad + o0;
        Lanes w[NB];
        for (int b = 0; b < NB; ++b)
            loadLanes(w[b], wi + b * kLanes);
        for (int s = 0; s < NS; ++s) {
            const float xs = x[static_cast<size_t>(s) * p.in + i];
            for (int b = 0; b < NB; ++b)
                acc[s][b] += w[b] * xs;
        }
    }
    for (int s = 0; s < NS; ++s) {
        float *ys = y + static_cast<size_t>(s) * p.out;
        for (int b = 0; b < NB; ++b) {
            const int o = o0 + b * kLanes;
            if (o + kLanes <= p.out) {
                storeLanes(ys + o, acc[s][b]);
            } else if (o < p.out) {
                float tail[kLanes];
                storeLanes(tail, acc[s][b]);
                std::memcpy(ys + o, tail,
                            sizeof(float) * static_cast<size_t>(p.out - o));
            }
        }
    }
}

/**
 * dst[j] += gains[k] * rows[k][j] for k ascending, j in [0, NB lanes):
 * NB independent add chains, each element's adds in k order.
 */
template <int NB>
FT_INLINE void
accumulateTile(float *dst, const float *const *rows, const float *gains,
               int k_count, int j0)
{
    // acc is loaded and stored through copies: with acc[b]'s own
    // address passed to memcpy, GCC 12 keeps acc in memory across the
    // k loop instead of in registers.
    Lanes acc[NB];
    for (int b = 0; b < NB; ++b) {
        Lanes v;
        loadLanes(v, dst + j0 + b * kLanes);
        acc[b] = v;
    }
    for (int k = 0; k < k_count; ++k) {
        const float g = gains[k];
        for (int b = 0; b < NB; ++b) {
            Lanes r;
            loadLanes(r, rows[k] + j0 + b * kLanes);
            acc[b] += r * g;
        }
    }
    for (int b = 0; b < NB; ++b) {
        const Lanes v = acc[b];
        storeLanes(dst + j0 + b * kLanes, v);
    }
}

/**
 * dst[j] += gains[k] * rows[k][j] over k ascending for every j < n:
 * the shared inner step of both gradient products. Register tiles of
 * 8 and 4 lane blocks, then single blocks, then a scalar tail; every
 * element sees the same mul-then-add sequence in each of them.
 */
FT_INLINE void
accumulateRows(float *dst, int n, const float *const *rows,
               const float *gains, int k_count)
{
    int j = 0;
    for (; j + 8 * kLanes <= n; j += 8 * kLanes)
        accumulateTile<8>(dst, rows, gains, k_count, j);
    for (; j + 4 * kLanes <= n; j += 4 * kLanes)
        accumulateTile<4>(dst, rows, gains, k_count, j);
    for (; j + kLanes <= n; j += kLanes)
        accumulateTile<1>(dst, rows, gains, k_count, j);
    for (; j < n; ++j) {
        float acc = dst[j];
        for (int k = 0; k < k_count; ++k)
            acc += gains[k] * rows[k][j];
        dst[j] = acc;
    }
}

} // namespace

void
Param::resize(std::size_t n)
{
    value.assign(n, 0.0f);
    grad.assign(n, 0.0f);
    accGradSq.assign(n, 0.0f);
    accDeltaSq.assign(n, 0.0f);
}

void
Param::zeroGrad()
{
    std::fill(grad.begin(), grad.end(), 0.0f);
}

FT_LANE_CLONES
void
Param::step()
{
    // Purely elementwise, so the loop vectorizes; mlp.cc builds with
    // -fno-math-errno so the sqrt needs no errno branch, and the SIMD
    // sqrt and divide are correctly rounded like their scalar forms.
    const float rho = static_cast<float>(0.95);
    const float eps = static_cast<float>(1e-6);
    const size_t n = value.size();
    float *__restrict v = value.data();
    float *__restrict gr = grad.data();
    float *__restrict eg = accGradSq.data();
    float *__restrict ed = accDeltaSq.data();
    for (size_t i = 0; i < n; ++i) {
        float g = gr[i];
        eg[i] = rho * eg[i] + (1.0f - rho) * g * g;
        float dx = -std::sqrt(ed[i] + eps) / std::sqrt(eg[i] + eps) * g;
        ed[i] = rho * ed[i] + (1.0f - rho) * dx * dx;
        v[i] += dx;
        gr[i] = 0.0f;
    }
}

Linear::Linear(int in_dim, int out_dim, Rng &rng)
    : inDim_(in_dim), outDim_(out_dim),
      outPad_((out_dim + kLanes - 1) / kLanes * kLanes)
{
    FT_ASSERT(in_dim > 0 && out_dim > 0, "Linear dims must be positive");
    w_.resize(static_cast<size_t>(in_dim) * out_dim);
    b_.resize(static_cast<size_t>(out_dim));
    const double scale = std::sqrt(2.0 / in_dim); // He init for ReLU nets
    rng.fillNormal(w_.value.data(), w_.value.size(), 0.0, scale);
    repack();
}

void
Linear::repack()
{
    // Row by row of the packed copy: contiguous stores, strided loads.
    packedW_.assign(static_cast<size_t>(inDim_) * outPad_, 0.0f);
    const float *w = w_.value.data();
    for (int i = 0; i < inDim_; ++i) {
        float *dst = &packedW_[static_cast<size_t>(i) * outPad_];
        for (int o = 0; o < outDim_; ++o)
            dst[o] = w[static_cast<size_t>(o) * inDim_ + i];
    }
    packedB_.assign(outPad_, 0.0f);
    std::copy(b_.value.begin(), b_.value.end(), packedB_.begin());
}

std::vector<float>
Linear::forward(const std::vector<float> &x) const
{
    FT_ASSERT(static_cast<int>(x.size()) == inDim_, "Linear input dim");
    std::vector<float> y(outDim_);
    forwardInto(x.data(), y.data());
    return y;
}

void
Linear::forwardInto(const float *x, float *y) const
{
    for (int o = 0; o < outDim_; ++o) {
        const float *row = &w_.value[static_cast<size_t>(o) * inDim_];
        float acc = b_.value[o];
        for (int i = 0; i < inDim_; ++i)
            acc += row[i] * x[i];
        y[o] = acc;
    }
}

FT_LANE_CLONES
void
Linear::forwardBatch(const float *x, int m, float *y) const
{
    const PackedLayer p{packedW_.data(), packedB_.data(), inDim_, outDim_,
                        outPad_};
    for (int s = 0; s < m; s += 4) {
        const int ns = std::min(4, m - s);
        const float *xs = x + static_cast<size_t>(s) * inDim_;
        float *ys = y + static_cast<size_t>(s) * outDim_;
        for (int o = 0; o < outPad_; o += 2 * kLanes) {
            const int nb = o + 2 * kLanes <= outPad_ ? 2 : 1;
            // Fixed tile shapes, so each tile's accumulators stay in
            // registers across the whole i loop.
            switch (ns * 2 + nb - 1) {
            case 2: forwardTile<1, 1>(p, xs, o, ys); break;
            case 3: forwardTile<1, 2>(p, xs, o, ys); break;
            case 4: forwardTile<2, 1>(p, xs, o, ys); break;
            case 5: forwardTile<2, 2>(p, xs, o, ys); break;
            case 6: forwardTile<3, 1>(p, xs, o, ys); break;
            case 7: forwardTile<3, 2>(p, xs, o, ys); break;
            case 8: forwardTile<4, 1>(p, xs, o, ys); break;
            default: forwardTile<4, 2>(p, xs, o, ys); break;
            }
        }
    }
}

std::vector<float>
Linear::backward(const std::vector<float> &dy, const std::vector<float> &x)
{
    FT_ASSERT(static_cast<int>(dy.size()) == outDim_, "Linear grad dim");
    FT_ASSERT(static_cast<int>(x.size()) == inDim_, "Linear input dim");
    std::vector<float> dx(inDim_);
    backwardInto(dy.data(), x.data(), dx.data());
    return dx;
}

void
Linear::backwardInto(const float *dy, const float *x, float *dx)
{
    if (dx)
        std::fill(dx, dx + inDim_, 0.0f);
    for (int o = 0; o < outDim_; ++o) {
        float g = dy[o];
        if (g == 0.0f)
            continue;
        b_.grad[o] += g;
        float *wrow = &w_.grad[static_cast<size_t>(o) * inDim_];
        const float *vrow = &w_.value[static_cast<size_t>(o) * inDim_];
        for (int i = 0; i < inDim_; ++i) {
            wrow[i] += g * x[i];
            if (dx)
                dx[i] += g * vrow[i];
        }
    }
}

FT_LANE_CLONES
void
Linear::backwardBatch(const float *dy, const float *x, int m, float *dx,
                      MlpScratch &scratch)
{
    auto &rows = scratch.rows;
    auto &gains = scratch.gains;
    rows.resize(std::max(m, outDim_));
    gains.resize(rows.size());
    // The gathers below compact the nonzero gradients (backwardInto
    // skips g == 0) without a branch: ReLU zeros make it a coin flip.
    // Parameter gradients: row o of dW gathers g * x_s over the samples
    // with a nonzero g, in sample order.
    for (int o = 0; o < outDim_; ++o) {
        int k = 0;
        for (int s = 0; s < m; ++s) {
            const float g = dy[static_cast<size_t>(s) * outDim_ + o];
            rows[k] = x + static_cast<size_t>(s) * inDim_;
            gains[k] = g;
            k += g != 0.0f;
        }
        for (int j = 0; j < k; ++j)
            b_.grad[o] += gains[j];
        if (k > 0)
            accumulateRows(&w_.grad[static_cast<size_t>(o) * inDim_],
                           inDim_, rows.data(), gains.data(), k);
    }
    if (!dx)
        return;
    // Input gradients: sample s gathers g * W[o] over its nonzero
    // outputs, o ascending, from zero.
    for (int s = 0; s < m; ++s) {
        const float *dys = dy + static_cast<size_t>(s) * outDim_;
        int k = 0;
        for (int o = 0; o < outDim_; ++o) {
            rows[k] = &w_.value[static_cast<size_t>(o) * inDim_];
            gains[k] = dys[o];
            k += dys[o] != 0.0f;
        }
        float *dxs = dx + static_cast<size_t>(s) * inDim_;
        std::fill(dxs, dxs + inDim_, 0.0f);
        accumulateRows(dxs, inDim_, rows.data(), gains.data(), k);
    }
}

void
Linear::zeroGrad()
{
    w_.zeroGrad();
    b_.zeroGrad();
}

void
Linear::step()
{
    w_.step();
    b_.step();
    repack();
}

std::size_t
Linear::restoreState(const float *src)
{
    const float *pos = src;
    for (Param *p : {&w_, &b_}) {
        for (std::vector<float> *dst :
             {&p->value, &p->accGradSq, &p->accDeltaSq}) {
            std::copy(pos, pos + dst->size(), dst->begin());
            pos += dst->size();
        }
    }
    repack();
    return static_cast<std::size_t>(pos - src);
}

Mlp::Mlp(const std::vector<int> &dims, Rng &rng)
{
    FT_ASSERT(dims.size() >= 2, "Mlp needs at least input and output dims");
    for (size_t i = 0; i + 1 < dims.size(); ++i)
        layers_.emplace_back(dims[i], dims[i + 1], rng);
}

namespace {

/** A He-init's inputs: the dims and the complete generator state. */
struct InitKey
{
    std::vector<int> dims;
    RngState before;

    /** Bitwise state equality: a spare differing in any bit is a miss. */
    bool operator==(const InitKey &o) const
    {
        return dims == o.dims &&
               std::memcmp(before.s, o.before.s, sizeof before.s) == 0 &&
               before.haveSpare == o.before.haveSpare &&
               std::memcmp(&before.spare, &o.before.spare,
                           sizeof before.spare) == 0;
    }

    /** The generator words; operator== compares the rest. */
    uint64_t hash() const
    {
        Fnv1a h;
        for (uint64_t w : before.s)
            h.word(w);
        return h.value();
    }
};

/** A He-init's outcome: the network and the state the draws left. */
struct InitValue
{
    RngState after;
    Mlp net;
};

/** The process-wide memo: few entries, since only runs of one request
 *  meet the same (dims, state) pair. */
SetupStore<InitKey, InitValue> &
initStore()
{
    static SetupStore<InitKey, InitValue> store(8);
    return store;
}

} // namespace

Mlp
initMlpMemoized(const std::vector<int> &dims, Rng &rng, bool *reused)
{
    // One memo for the process, so searches on different threads share
    // their inits; a search that misses while another draws the same
    // init waits for it instead of drawing again.
    bool drew = false;
    const auto init = initStore().get(InitKey{dims, rng.state()}, [&] {
        drew = true;
        Rng draw = rng;
        Mlp net(dims, draw);
        return InitValue{draw.state(), std::move(net)};
    });
    rng.setState(init->after);
    if (reused)
        *reused = !drew;
    return init->net;
}

int
Mlp::inputDim() const
{
    return layers_.front().inDim();
}

int
Mlp::outputDim() const
{
    return layers_.back().outDim();
}

namespace {

void
relu(float *v, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        v[i] = v[i] > 0.0f ? v[i] : 0.0f;
}

} // namespace

std::vector<float>
Mlp::forward(const std::vector<float> &x) const
{
    FT_ASSERT(static_cast<int>(x.size()) == inputDim(), "Mlp input dim");
    std::vector<float> in = x, out;
    for (size_t l = 0; l < layers_.size(); ++l) {
        out.resize(layers_[l].outDim());
        layers_[l].forwardInto(in.data(), out.data());
        if (l + 1 < layers_.size())
            relu(out.data(), out.size());
        std::swap(in, out);
    }
    return in;
}

const float *
Mlp::forwardBatch(const float *x, int m, MlpScratch &scratch) const
{
    const float *in = x;
    for (size_t l = 0; l < layers_.size(); ++l) {
        // Ping-pong between the two scratch planes so layer l reads
        // the plane layer l-1 wrote.
        std::vector<float> &out = (l % 2 == 0) ? scratch.a : scratch.b;
        out.resize(static_cast<size_t>(m) * layers_[l].outDim());
        layers_[l].forwardBatch(in, m, out.data());
        if (l + 1 < layers_.size())
            relu(out.data(), out.size());
        in = out.data();
    }
    return in;
}

double
Mlp::accumulateGrad(const std::vector<float> &x, int action, float target)
{
    MlpScratch scratch;
    return accumulateGrad(x, action, target, scratch);
}

double
Mlp::accumulateGrad(const std::vector<float> &x, int action, float target,
                    MlpScratch &scratch)
{
    FT_ASSERT(action >= 0 && action < outputDim(), "action out of range");
    // Forward with cached activations (inputs to each layer).
    auto &acts = scratch.acts;
    acts.resize(layers_.size() + 1);
    acts[0] = x;
    for (size_t l = 0; l < layers_.size(); ++l) {
        acts[l + 1].resize(layers_[l].outDim());
        layers_[l].forwardInto(acts[l].data(), acts[l + 1].data());
        if (l + 1 < layers_.size())
            relu(acts[l + 1].data(), acts[l + 1].size());
    }
    const float q = acts.back()[action];
    const float err = q - target;

    // Backward: dL/dq on the chosen output only.
    auto &dy = scratch.dy;
    auto &dx = scratch.dx;
    dy.assign(outputDim(), 0.0f);
    dy[action] = 2.0f * err;
    for (size_t l = layers_.size(); l-- > 0;) {
        if (l == 0) {
            // Nothing reads dL/dx of the network input.
            layers_[0].backwardInto(dy.data(), acts[0].data(), nullptr);
            break;
        }
        dx.resize(layers_[l].inDim());
        layers_[l].backwardInto(dy.data(), acts[l].data(), dx.data());
        // Through the ReLU that produced acts[l].
        for (size_t i = 0; i < dx.size(); ++i) {
            if (acts[l][i] <= 0.0f)
                dx[i] = 0.0f;
        }
        std::swap(dy, dx);
    }
    return static_cast<double>(err) * err;
}

double
Mlp::accumulateGradBatch(const float *x, int m, const int *actions,
                         const float *targets, MlpScratch &scratch)
{
    const size_t num_layers = layers_.size();
    // Forward once for the whole batch, keeping every layer's output
    // plane (m x dim, row-major); acts[l] is the input of layer l + 1.
    auto &acts = scratch.acts;
    acts.resize(num_layers);
    const float *in = x;
    for (size_t l = 0; l < num_layers; ++l) {
        acts[l].resize(static_cast<size_t>(m) * layers_[l].outDim());
        layers_[l].forwardBatch(in, m, acts[l].data());
        if (l + 1 < num_layers)
            relu(acts[l].data(), acts[l].size());
        in = acts[l].data();
    }

    // dL/dq on each sample's chosen output; losses sum in sample order.
    const int od = outputDim();
    double loss = 0.0;
    auto &dy = scratch.dy;
    auto &dx = scratch.dx;
    dy.assign(static_cast<size_t>(m) * od, 0.0f);
    for (int s = 0; s < m; ++s) {
        FT_ASSERT(actions[s] >= 0 && actions[s] < od, "action out of range");
        const float q = in[static_cast<size_t>(s) * od + actions[s]];
        const float err = q - targets[s];
        loss += static_cast<double>(err) * err;
        dy[static_cast<size_t>(s) * od + actions[s]] = 2.0f * err;
    }

    // Backward layer by layer over the whole batch. Samples are
    // independent given the weights, and backwardBatch() adds each
    // sample's contribution to a gradient element in sample order, so
    // the result matches m successive per-sample passes bit for bit.
    for (size_t l = num_layers; l-- > 0;) {
        if (l == 0) {
            layers_[0].backwardBatch(dy.data(), x, m, nullptr, scratch);
            break;
        }
        const std::vector<float> &act = acts[l - 1];
        dx.resize(act.size());
        layers_[l].backwardBatch(dy.data(), act.data(), m, dx.data(),
                                 scratch);
        // Through the ReLU that produced this layer's input.
        for (size_t i = 0; i < act.size(); ++i) {
            if (act[i] <= 0.0f)
                dx[i] = 0.0f;
        }
        std::swap(dy, dx);
    }
    return loss;
}

void
Mlp::zeroGrad()
{
    for (auto &l : layers_)
        l.zeroGrad();
}

void
Mlp::step()
{
    for (auto &l : layers_)
        l.step();
}

std::vector<float>
Mlp::checkpointState() const
{
    std::vector<float> out;
    for (const auto &layer : layers_) {
        for (const Param *p : layer.params()) {
            out.insert(out.end(), p->value.begin(), p->value.end());
            out.insert(out.end(), p->accGradSq.begin(), p->accGradSq.end());
            out.insert(out.end(), p->accDeltaSq.begin(),
                       p->accDeltaSq.end());
        }
    }
    return out;
}

bool
Mlp::restoreCheckpointState(const std::vector<float> &state)
{
    size_t need = 0;
    for (const auto &layer : layers_) {
        for (const Param *p : layer.params())
            need += 3 * p->value.size();
    }
    if (state.size() != need)
        return false;
    size_t pos = 0;
    for (auto &layer : layers_)
        pos += layer.restoreState(state.data() + pos);
    return true;
}

} // namespace ft
