#include "nn/executor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace deepstore::nn {

namespace {

/** FC outputs accumulated together in one pass over the input: enough
 *  independent sums to hide the add latency, few enough to stay in
 *  SSE registers (one lane needs more rows for as many sums). */
template <std::size_t L>
constexpr std::size_t kOutBlock = L == 1 ? 8 : 4;

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

/**
 * Lay L database features (row-major, `dim` floats each) out as the
 * first layer's input: combined with the query by an element-wise
 * first layer, after the query for a concatenating model, alone
 * otherwise.
 */
template <std::size_t L>
void
stageInput(const Model &model, const float *q, const float *d,
           float *x)
{
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
    switch (first.ewOp) {
      case EwOp::Add:
        for (std::size_t i = 0; i < dim; ++i)
            for (std::size_t f = 0; f < L; ++f)
                x[i * L + f] = q[i] + x[i * L + f];
        break;
      case EwOp::Subtract:
        for (std::size_t i = 0; i < dim; ++i)
            for (std::size_t f = 0; f < L; ++f)
                x[i * L + f] = q[i] - x[i * L + f];
        break;
      case EwOp::Multiply:
        for (std::size_t i = 0; i < dim; ++i)
            for (std::size_t f = 0; f < L; ++f)
                x[i * L + f] = q[i] * x[i * L + f];
        break;
      case EwOp::DotProduct: {
        float acc[L];
        for (std::size_t f = 0; f < L; ++f)
            acc[f] = 0.0f;
        for (std::size_t i = 0; i < dim; ++i)
            for (std::size_t f = 0; f < L; ++f)
                acc[f] += q[i] * x[i * L + f];
        for (std::size_t f = 0; f < L; ++f)
            x[f] = acc[f];
        break;
      }
    }
}

/**
 * Raw outputs of OB consecutive FC rows `w` for L lanes. Every
 * accumulator starts at its bias and adds w[r][i] * x[i] for
 * i = 0 ... n_in - 1, the scalar order; only lanes and the OB rows
 * run side by side. Kept out of line so GCC vectorizes the same loop
 * whatever the caller inlines around it.
 */
template <std::size_t L, std::size_t OB>
[[gnu::noinline]] void
fcRows(const float *w, const float *bias, std::size_t n_in,
       const float *x, float *y)
{
    float acc[OB][L];
    for (std::size_t r = 0; r < OB; ++r)
        for (std::size_t f = 0; f < L; ++f)
            acc[r][f] = bias[r];
    // Unrolled, the accumulators live in registers; as loops, GCC at
    // -O2 keeps them on the stack and the layer runs ~1.7x slower
    // (~3x under the sanitizers, which also stop it vectorizing).
    for (std::size_t i = 0; i < n_in; ++i) {
        const float *xi = x + i * L;
#pragma GCC unroll 8
        for (std::size_t r = 0; r < OB; ++r) {
            const float wv = w[r * n_in + i];
#pragma GCC unroll 8
            for (std::size_t f = 0; f < L; ++f)
                acc[r][f] += wv * xi[f];
        }
    }
    for (std::size_t r = 0; r < OB; ++r)
        for (std::size_t f = 0; f < L; ++f)
            y[r * L + f] = acc[r][f];
}

/** FC layer y = act(W x + b), weights in their stored [out x in]. */
template <std::size_t L>
void
fullyConnected(const Layer &l, const Tensor &w, const Tensor &b,
               const float *x, float *y)
{
    constexpr std::size_t ob = kOutBlock<L>;
    const auto n_in = static_cast<std::size_t>(l.fcIn);
    const auto n_out = static_cast<std::size_t>(l.fcOut);
    float bias[ob];
    for (std::size_t o = 0; o < n_out; o += ob) {
        const std::size_t rows = std::min(ob, n_out - o);
        for (std::size_t r = 0; r < rows; ++r)
            bias[r] = l.fcBias ? b[o + r] : 0.0f;
        if (rows == ob) {
            fcRows<L, ob>(w.data() + o * n_in, bias, n_in, x, y + o * L);
        } else {
            for (std::size_t r = 0; r < rows; ++r)
                fcRows<L, 1>(w.data() + (o + r) * n_in, bias + r, n_in,
                             x, y + (o + r) * L);
        }
    }
    for (std::size_t k = 0; k < n_out * L; ++k)
        y[k] = applyActivation(l.activation, y[k]);
}

/** Channel-last 2-D convolution, kernel layout (kH, kW, inC, outC). */
template <std::size_t L>
void
conv2d(const Layer &l, const Tensor &w, const Tensor &b, const float *x,
       float *y)
{
    const std::int64_t oh = l.outH(), ow = l.outW();
    for (std::int64_t yy = 0; yy < oh; ++yy) {
        for (std::int64_t xx = 0; xx < ow; ++xx) {
            for (std::int64_t oc = 0; oc < l.outC; ++oc) {
                float acc[L];
                for (std::size_t f = 0; f < L; ++f)
                    acc[f] = b[static_cast<std::size_t>(oc)];
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
                                for (std::size_t f = 0; f < L; ++f)
                                    acc[f] += xi[f] * wv;
                            } else {
                                for (std::size_t f = 0; f < L; ++f)
                                    acc[f] += 0.0f * wv;
                            }
                        }
                    }
                }
                float *yo = y + static_cast<std::size_t>(
                                    (yy * ow + xx) * l.outC + oc) *
                                    L;
                for (std::size_t f = 0; f < L; ++f)
                    yo[f] = applyActivation(l.activation, acc[f]);
            }
        }
    }
}

/**
 * Evaluate the model on L (query, feature) pairs at once. `scratch`
 * holds two lane-layout buffers of `width` scalars per lane.
 * @return the last layer's output, in lane layout inside `scratch`.
 */
template <std::size_t L>
const float *
forward(const Model &model, const ModelWeights &weights, std::size_t width,
        const float *q, const float *d, float *scratch)
{
    float *cur = scratch;
    float *next = scratch + width * L;
    stageInput<L>(model, q, d, cur);
    const auto &layers = model.layers();
    const std::size_t begin =
        layers[0].kind == LayerKind::ElementWise ? 1 : 0;
    for (std::size_t idx = begin; idx < layers.size(); ++idx) {
        const Layer &l = layers[idx];
        switch (l.kind) {
          case LayerKind::FullyConnected:
            fullyConnected<L>(l, weights.kernel(idx), weights.bias(idx),
                              cur, next);
            break;
          case LayerKind::Conv2D:
            conv2d<L>(l, weights.kernel(idx), weights.bias(idx), cur,
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

} // namespace

Executor::Executor(const Model &model, const ModelWeights &weights)
    : model_(model), weights_(weights)
{
    model_.validate();
    if (weights_.numLayers() != model_.numLayers())
        fatal("executor: weights have %zu layers, model has %zu",
              weights_.numLayers(), model_.numLayers());
    const auto &layers = model_.layers();
    auto dim = static_cast<std::size_t>(model_.featureDim());
    width_ = model_.concatInputs() ? 2 * dim : dim;
    for (const Layer &l : layers)
        width_ = std::max(width_,
                          static_cast<std::size_t>(l.outputCount()));
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
    std::vector<float> scratch(2 * width_);
    const float *out = forward<1>(model_, weights_, width_, qfv.data(),
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
    scoreBatch(qfv, dfv.data(), 1, &s);
    return s;
}

void
Executor::scoreBatch(const std::vector<float> &qfv, const float *dfvs,
                     std::size_t n, float *scores) const
{
    const auto dim = static_cast<std::size_t>(model_.featureDim());
    checkSizes(qfv, dim);
    if (n == 0)
        return;
    const auto n_out = static_cast<std::size_t>(model_.outputDim());
    // One block of scratch; a batch shorter than a lane group (e.g.
    // score()) only takes the one-lane share.
    std::vector<float> scratch(2 * width_ * (n < kLanes ? 1 : kLanes));
    std::size_t j = 0;
    for (; j + kLanes <= n; j += kLanes) {
        const float *out =
            forward<kLanes>(model_, weights_, width_, qfv.data(),
                            dfvs + j * dim, scratch.data());
        for (std::size_t f = 0; f < kLanes; ++f)
            scores[j + f] = scoreOutputs(out + f, n_out, kLanes);
    }
    for (; j < n; ++j) {
        const float *out = forward<1>(model_, weights_, width_,
                                      qfv.data(), dfvs + j * dim,
                                      scratch.data());
        scores[j] = scoreOutputs(out, n_out, 1);
    }
}

} // namespace deepstore::nn
