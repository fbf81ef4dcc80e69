#include "nn/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "nn/score_kernels.h"

namespace deepstore::nn {

namespace {

/** GCC vectors of 4 and 8 floats (SSE and AVX register widths). */
typedef float F4 __attribute__((vector_size(16)));
typedef float F8 __attribute__((vector_size(32)));

/**
 * A block of L lanes held in registers as L / W values of type V, a
 * GCC vector of W floats or, for W = 1, the plain scalar. The source
 * fixes this layout rather than the vectorizer's cost model, so the
 * loops below compile to the same vector code at -O2 and -O3 and
 * under the sanitizers. The lane-layout buffers need no alignment:
 * vector loads and stores go through memcpy.
 */
template <std::size_t L, class Vec>
struct Lanes
{
    using V = Vec;
    static constexpr std::size_t kWidth = sizeof(V) / sizeof(float);
    static_assert(L % kWidth == 0);
    static constexpr std::size_t kLanes = L;
    static constexpr std::size_t kVecs = L / kWidth;

    // The scalar case is a plain copy: through memcpy GCC kept the
    // one-lane dot sum in a general-purpose register, moving it to an
    // SSE register and back on every add (2x slower QCN probes).
    static void
    load(V &v, const float *p)
    {
        if constexpr (kWidth == 1)
            v = *p;
        else
            std::memcpy(&v, p, sizeof(V));
    }

    static void
    store(float *p, const V &v)
    {
        if constexpr (kWidth == 1)
            *p = v;
        else
            std::memcpy(p, &v, sizeof(V));
    }

    /** Every element of v set to s (a copy, not 0 + s). For
     *  accumulator set-up only: the inner loops multiply by a scalar,
     *  which GCC broadcasts in a register, where this goes through
     *  memory (and, in the sanitized build, a poisoned stack array
     *  per call). */
    static void
    splat(V &v, float s)
    {
        float a[kWidth];
        std::fill_n(a, kWidth, s);
        load(v, a);
    }
};

/** One feature at a time. */
using OneLane = Lanes<1, float>;

/** FC outputs accumulated together in one pass over the input: eight
 *  independent vector sums hide the add latency and, with the input
 *  and weight vectors, still fit the 16 SSE/AVX registers. */
template <class B>
constexpr std::size_t kOutBlock = 8 / B::kVecs;

float
applyActivation(Activation act, float x)
{
    switch (act) {
      case Activation::None:
        return x;
      case Activation::ReLU:
        return x > 0.0f ? x : 0.0f;
      case Activation::Sigmoid:
        return 1.0f / (1.0f + std::exp(-x));
    }
    return x;
}

/** Score of one feature whose `n` raw outputs sit `stride` apart. */
float
scoreOutputs(const float *out, std::size_t n, std::size_t stride)
{
    DS_ASSERT(n > 0);
    if (n == 1)
        return applyActivation(Activation::Sigmoid, out[0]);
    if (n == 2) {
        // Numerically stable 2-way softmax; index 1 is "match".
        float m = std::max(out[0], out[stride]);
        float e0 = std::exp(out[0] - m);
        float e1 = std::exp(out[stride] - m);
        return e1 / (e0 + e1);
    }
    float mean = 0.0f;
    for (std::size_t o = 0; o < n; ++o)
        mean += out[o * stride];
    mean /= static_cast<float>(n);
    return applyActivation(Activation::Sigmoid, mean);
}

/** Scalars per lane of each of forward()'s two buffers: the widest
 *  layer input or output. */
std::size_t
laneWidth(const Model &model)
{
    const auto dim = static_cast<std::size_t>(model.featureDim());
    std::size_t width = model.concatInputs() ? 2 * dim : dim;
    for (const Layer &l : model.layers())
        width = std::max(width, static_cast<std::size_t>(l.outputCount()));
    return width;
}

/**
 * Lay a block of database features (row-major, `dim` floats each)
 * out as the first layer's input: combined with the query by an
 * element-wise first layer, after the query for a concatenating
 * model, alone otherwise.
 */
template <class B>
void
stageInput(const Model &model, const float *q, const float *d, float *x)
{
    constexpr std::size_t L = B::kLanes, W = B::kWidth;
    using V = typename B::V;
    const auto dim = static_cast<std::size_t>(model.featureDim());
    const Layer &first = model.layers()[0];
    const bool ew = first.kind == LayerKind::ElementWise;
    float *dl = x;
    if (!ew && model.concatInputs()) {
        for (std::size_t i = 0; i < dim; ++i)
            for (std::size_t f = 0; f < L; ++f)
                x[i * L + f] = q[i];
        dl = x + dim * L;
    }
    for (std::size_t i = 0; i < dim; ++i)
        for (std::size_t f = 0; f < L; ++f)
            dl[i * L + f] = d[f * dim + i];
    if (!ew)
        return;
    // The query is the left operand, as in the one-feature layer.
    const auto fuse = [&](auto op) {
        for (std::size_t i = 0; i < dim; ++i) {
#pragma GCC unroll 8
            for (std::size_t v = 0; v < B::kVecs; ++v) {
                float *p = x + i * L + v * W;
                V xv;
                B::load(xv, p);
                op(q[i], xv);
                B::store(p, xv);
            }
        }
    };
    switch (first.ewOp) {
      case EwOp::Add:
        fuse([](float a, V &b) { b = a + b; });
        break;
      case EwOp::Subtract:
        fuse([](float a, V &b) { b = a - b; });
        break;
      case EwOp::Multiply:
        fuse([](float a, V &b) { b = a * b; });
        break;
      case EwOp::DotProduct: {
        V acc[B::kVecs];
        for (std::size_t v = 0; v < B::kVecs; ++v)
            B::splat(acc[v], 0.0f);
        for (std::size_t i = 0; i < dim; ++i) {
#pragma GCC unroll 8
            for (std::size_t v = 0; v < B::kVecs; ++v) {
                V xv;
                B::load(xv, x + i * L + v * W);
                acc[v] += q[i] * xv;
            }
        }
        for (std::size_t v = 0; v < B::kVecs; ++v)
            B::store(x + v * W, acc[v]);
        break;
      }
    }
}

/**
 * Raw outputs of OB consecutive FC rows `w` for a block of lanes.
 * Every accumulator starts at its bias and adds w[r][i] * x[i] for
 * i = 0 ... n_in - 1, the scalar order; only lanes and the OB rows
 * run side by side.
 */
template <class B, std::size_t OB>
void
fcRows(const float *w, const float *bias, std::size_t n_in,
       const float *x, float *y)
{
    constexpr std::size_t L = B::kLanes, W = B::kWidth;
    using V = typename B::V;
    V acc[OB][B::kVecs];
    for (std::size_t r = 0; r < OB; ++r)
        for (std::size_t v = 0; v < B::kVecs; ++v)
            B::splat(acc[r][v], bias[r]);
    // Unrolled, the accumulators live in registers; as loops, GCC
    // keeps them on the stack.
    for (std::size_t i = 0; i < n_in; ++i) {
        V xv[B::kVecs];
#pragma GCC unroll 8
        for (std::size_t v = 0; v < B::kVecs; ++v)
            B::load(xv[v], x + i * L + v * W);
#pragma GCC unroll 8
        for (std::size_t r = 0; r < OB; ++r) {
            const float wv = w[r * n_in + i];
#pragma GCC unroll 8
            for (std::size_t v = 0; v < B::kVecs; ++v)
                acc[r][v] += wv * xv[v];
        }
    }
    for (std::size_t r = 0; r < OB; ++r)
        for (std::size_t v = 0; v < B::kVecs; ++v)
            B::store(y + r * L + v * W, acc[r][v]);
}

/** FC layer y = act(W x + b), weights in their stored [out x in]. */
template <class B>
void
fullyConnected(const Layer &l, const Tensor &w, const Tensor &b,
               const float *x, float *y)
{
    constexpr std::size_t L = B::kLanes, ob = kOutBlock<B>;
    const auto n_in = static_cast<std::size_t>(l.fcIn);
    const auto n_out = static_cast<std::size_t>(l.fcOut);
    float bias[ob];
    for (std::size_t o = 0; o < n_out; o += ob) {
        const std::size_t rows = std::min(ob, n_out - o);
        for (std::size_t r = 0; r < rows; ++r)
            bias[r] = l.fcBias ? b[o + r] : 0.0f;
        if (rows == ob) {
            fcRows<B, ob>(w.data() + o * n_in, bias, n_in, x, y + o * L);
        } else {
            for (std::size_t r = 0; r < rows; ++r)
                fcRows<B, 1>(w.data() + (o + r) * n_in, bias + r, n_in,
                             x, y + (o + r) * L);
        }
    }
    for (std::size_t k = 0; k < n_out * L; ++k)
        y[k] = applyActivation(l.activation, y[k]);
}

/** Channel-last 2-D convolution, kernel layout (kH, kW, inC, outC). */
template <class B>
void
conv2d(const Layer &l, const Tensor &w, const Tensor &b, const float *x,
       float *y)
{
    constexpr std::size_t L = B::kLanes, W = B::kWidth;
    using V = typename B::V;
    const std::int64_t oh = l.outH(), ow = l.outW();
    for (std::int64_t yy = 0; yy < oh; ++yy) {
        for (std::int64_t xx = 0; xx < ow; ++xx) {
            for (std::int64_t oc = 0; oc < l.outC; ++oc) {
                V acc[B::kVecs];
                for (std::size_t v = 0; v < B::kVecs; ++v)
                    B::splat(acc[v], b[static_cast<std::size_t>(oc)]);
                for (std::int64_t ky = 0; ky < l.kH; ++ky) {
                    const std::int64_t h = yy * l.stride + ky - l.pad;
                    for (std::int64_t kx = 0; kx < l.kW; ++kx) {
                        const std::int64_t wx =
                            xx * l.stride + kx - l.pad;
                        const bool inside =
                            h >= 0 && h < l.inH && wx >= 0 && wx < l.inW;
                        for (std::int64_t ic = 0; ic < l.inC; ++ic) {
                            const float wv = w[static_cast<std::size_t>(
                                ((ky * l.kW + kx) * l.inC + ic) *
                                    l.outC +
                                oc)];
                            // A padded tap adds 0 * w, not nothing,
                            // so a -0 sum and inf or NaN weights
                            // come out as over a zero-padded input.
                            if (inside) {
                                const float *xi =
                                    x + static_cast<std::size_t>(
                                            (h * l.inW + wx) * l.inC +
                                            ic) *
                                            L;
                                for (std::size_t v = 0; v < B::kVecs;
                                     ++v) {
                                    V xv;
                                    B::load(xv, xi + v * W);
                                    acc[v] += xv * wv;
                                }
                            } else {
                                for (std::size_t v = 0; v < B::kVecs;
                                     ++v)
                                    acc[v] += 0.0f * wv;
                            }
                        }
                    }
                }
                float *yo = y + static_cast<std::size_t>(
                                    (yy * ow + xx) * l.outC + oc) *
                                    L;
                for (std::size_t v = 0; v < B::kVecs; ++v)
                    B::store(yo + v * W, acc[v]);
                for (std::size_t f = 0; f < L; ++f)
                    yo[f] = applyActivation(l.activation, yo[f]);
            }
        }
    }
}

/**
 * Evaluate the model on a block of (query, feature) pairs. `scratch`
 * holds two lane-layout buffers of `width` scalars per lane.
 * @return the last layer's output, in lane layout inside `scratch`.
 */
template <class B>
const float *
forward(const Model &model, const ModelWeights &weights, std::size_t width,
        const float *q, const float *d, float *scratch)
{
    float *cur = scratch;
    float *next = scratch + width * B::kLanes;
    stageInput<B>(model, q, d, cur);
    const auto &layers = model.layers();
    const std::size_t begin =
        layers[0].kind == LayerKind::ElementWise ? 1 : 0;
    for (std::size_t idx = begin; idx < layers.size(); ++idx) {
        const Layer &l = layers[idx];
        switch (l.kind) {
          case LayerKind::FullyConnected:
            fullyConnected<B>(l, weights.kernel(idx), weights.bias(idx),
                              cur, next);
            break;
          case LayerKind::Conv2D:
            conv2d<B>(l, weights.kernel(idx), weights.bias(idx), cur,
                      next);
            break;
          case LayerKind::ElementWise:
            // Model::validate() admits one only as layer 0.
            panic("executor: element-wise layer %zu is not layer 0",
                  idx);
        }
        std::swap(cur, next);
    }
    return cur;
}

/**
 * forward() on one feature. Kept out of line, so both kernels and
 * run() share one copy at the default target: with its eight scalar
 * row sums as one AVX register, it ran ~40% slower than as two SSE
 * registers (BM_ExecutorScore).
 */
[[gnu::noinline]] const float *
forwardOne(const Model &model, const ModelWeights &weights,
           std::size_t width, const float *q, const float *d,
           float *scratch)
{
    return forward<OneLane>(model, weights, width, q, d, scratch);
}

/** Score `n` features: whole blocks of `Block`, then one at a time. */
template <class Block>
void
scoreFeatures(const Model &model, const ModelWeights &weights,
              const float *q, const float *dfvs, std::size_t n,
              float *scores)
{
    if (n == 0)
        return;
    constexpr std::size_t L = Block::kLanes;
    const auto dim = static_cast<std::size_t>(model.featureDim());
    const auto n_out = static_cast<std::size_t>(model.outputDim());
    const std::size_t width = laneWidth(model);
    // One block of scratch; a batch shorter than a block (e.g.
    // score()) only takes the one-lane share.
    std::vector<float> scratch(2 * width * (n < L ? 1 : L));
    std::size_t j = 0;
    for (; j + L <= n; j += L) {
        const float *out = forward<Block>(model, weights, width, q,
                                          dfvs + j * dim, scratch.data());
        for (std::size_t f = 0; f < L; ++f)
            scores[j + f] = scoreOutputs(out + f, n_out, L);
    }
    for (; j < n; ++j) {
        const float *out = forwardOne(model, weights, width, q,
                                      dfvs + j * dim, scratch.data());
        scores[j] = scoreOutputs(out, n_out, 1);
    }
}

} // namespace

// Each entry point inlines its whole call tree but forwardOne()
// (flatten), so the AVX2 one compiles every block loop for AVX2. Its
// target names no FMA: a fused multiply-add rounds once, the scalar
// loop twice.

[[gnu::flatten]] void
kernels::scoreBaseline(const Model &model, const ModelWeights &weights,
                       const float *q, const float *dfvs, std::size_t n,
                       float *scores)
{
    scoreFeatures<Lanes<Executor::kLanes, F4>>(model, weights, q, dfvs, n,
                                              scores);
}

#if defined(__x86_64__) || defined(__i386__)

[[gnu::target("avx2"), gnu::flatten]] void
kernels::scoreAvx2(const Model &model, const ModelWeights &weights,
                   const float *q, const float *dfvs, std::size_t n,
                   float *scores)
{
    scoreFeatures<Lanes<Executor::kLanes, F8>>(model, weights, q, dfvs, n,
                                              scores);
}

bool
kernels::hasAvx2()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}

#else

void
kernels::scoreAvx2(const Model &, const ModelWeights &, const float *,
                   const float *, std::size_t, float *)
{
    panic("executor: no AVX2 kernel on this target");
}

bool
kernels::hasAvx2()
{
    return false;
}

#endif

Executor::Executor(const Model &model, const ModelWeights &weights)
    : model_(model), weights_(weights),
      kernel_(kernels::hasAvx2() ? kernels::scoreAvx2
                                 : kernels::scoreBaseline)
{
    model_.validate();
    if (weights_.numLayers() != model_.numLayers())
        fatal("executor: weights have %zu layers, model has %zu",
              weights_.numLayers(), model_.numLayers());
}

void
Executor::checkSizes(const std::vector<float> &qfv,
                     std::size_t dfv_size) const
{
    auto dim = static_cast<std::size_t>(model_.featureDim());
    if (qfv.size() != dim || dfv_size != dim)
        fatal("executor: feature size mismatch (got %zu/%zu, want %zu)",
              qfv.size(), dfv_size, dim);
}

std::vector<float>
Executor::run(const std::vector<float> &qfv,
              const std::vector<float> &dfv) const
{
    checkSizes(qfv, dfv.size());
    const std::size_t width = laneWidth(model_);
    std::vector<float> scratch(2 * width);
    const float *out = forwardOne(model_, weights_, width, qfv.data(),
                                  dfv.data(), scratch.data());
    return {out, out + model_.outputDim()};
}

float
Executor::scoreFromOutput(const std::vector<float> &out)
{
    return scoreOutputs(out.data(), out.size(), 1);
}

float
Executor::score(const std::vector<float> &qfv,
                const std::vector<float> &dfv) const
{
    checkSizes(qfv, dfv.size());
    float s = 0.0f;
    kernel_(model_, weights_, qfv.data(), dfv.data(), 1, &s);
    return s;
}

void
Executor::scoreBatch(const std::vector<float> &qfv, const float *dfvs,
                     std::size_t n, float *scores) const
{
    checkSizes(qfv, static_cast<std::size_t>(model_.featureDim()));
    kernel_(model_, weights_, qfv.data(), dfvs, n, scores);
}

} // namespace deepstore::nn
