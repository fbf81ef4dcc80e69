/**
 * @file
 * One-feature scalar evaluation of an SCN, for bit-identity checks of
 * nn::Executor: a plain loop per layer and per output, each FC output
 * accumulating bias first and then inputs 0 ... n_in - 1. Tests
 * compare the executor's scores with these bytewise.
 */

#ifndef DEEPSTORE_TESTS_NN_SCALAR_REFERENCE_H
#define DEEPSTORE_TESTS_NN_SCALAR_REFERENCE_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "nn/model.h"
#include "nn/weights.h"

namespace deepstore::nn::testing {

inline float
scalarActivation(Activation act, float x)
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

inline std::vector<float>
scalarLayer(const Model &model, const ModelWeights &weights,
            std::size_t idx, const std::vector<float> &in,
            const std::vector<float> &aux)
{
    const Layer &l = model.layers()[idx];
    std::vector<float> out;
    switch (l.kind) {
      case LayerKind::FullyConnected: {
        auto n_in = static_cast<std::size_t>(l.fcIn);
        auto n_out = static_cast<std::size_t>(l.fcOut);
        DS_ASSERT(in.size() == n_in);
        const Tensor &w = weights.kernel(idx);
        const Tensor &b = weights.bias(idx);
        out.assign(n_out, 0.0f);
        for (std::size_t o = 0; o < n_out; ++o) {
            float acc = l.fcBias ? b[o] : 0.0f;
            const float *row = w.data() + o * n_in;
            for (std::size_t i = 0; i < n_in; ++i)
                acc += row[i] * in[i];
            out[o] = scalarActivation(l.activation, acc);
        }
        break;
      }
      case LayerKind::Conv2D: {
        DS_ASSERT(in.size() ==
                  static_cast<std::size_t>(l.inH * l.inW * l.inC));
        const Tensor &w = weights.kernel(idx);
        const Tensor &b = weights.bias(idx);
        std::int64_t oh = l.outH(), ow = l.outW();
        out.assign(static_cast<std::size_t>(oh * ow * l.outC), 0.0f);
        auto in_at = [&](std::int64_t h, std::int64_t wx,
                         std::int64_t c) -> float {
            if (h < 0 || h >= l.inH || wx < 0 || wx >= l.inW)
                return 0.0f;
            return in[static_cast<std::size_t>(
                (h * l.inW + wx) * l.inC + c)];
        };
        // Kernel layout: (kH, kW, inC, outC).
        for (std::int64_t y = 0; y < oh; ++y) {
            for (std::int64_t x = 0; x < ow; ++x) {
                for (std::int64_t oc = 0; oc < l.outC; ++oc) {
                    float acc = b[static_cast<std::size_t>(oc)];
                    for (std::int64_t ky = 0; ky < l.kH; ++ky) {
                        for (std::int64_t kx = 0; kx < l.kW; ++kx) {
                            for (std::int64_t ic = 0; ic < l.inC; ++ic) {
                                float iv = in_at(
                                    y * l.stride + ky - l.pad,
                                    x * l.stride + kx - l.pad, ic);
                                float wv = w[static_cast<std::size_t>(
                                    ((ky * l.kW + kx) * l.inC + ic) *
                                        l.outC +
                                    oc)];
                                acc += iv * wv;
                            }
                        }
                    }
                    out[static_cast<std::size_t>(
                        (y * ow + x) * l.outC + oc)] =
                        scalarActivation(l.activation, acc);
                }
            }
        }
        break;
      }
      case LayerKind::ElementWise: {
        auto n = static_cast<std::size_t>(l.ewSize);
        DS_ASSERT(in.size() == n && aux.size() == n);
        switch (l.ewOp) {
          case EwOp::Add:
            out.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                out[i] = in[i] + aux[i];
            break;
          case EwOp::Subtract:
            out.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                out[i] = in[i] - aux[i];
            break;
          case EwOp::Multiply:
            out.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                out[i] = in[i] * aux[i];
            break;
          case EwOp::DotProduct: {
            float acc = 0.0f;
            for (std::size_t i = 0; i < n; ++i)
                acc += in[i] * aux[i];
            out.assign(1, acc);
            break;
          }
        }
        break;
      }
    }
    return out;
}

/** Raw last-layer output for one (query, database) pair. */
inline std::vector<float>
scalarRun(const Model &model, const ModelWeights &weights,
          const std::vector<float> &qfv, const std::vector<float> &dfv)
{
    std::vector<float> cur;
    const auto &layers = model.layers();
    if (layers[0].kind == LayerKind::ElementWise) {
        cur = scalarLayer(model, weights, 0, qfv, dfv);
    } else if (model.concatInputs()) {
        cur = qfv;
        cur.insert(cur.end(), dfv.begin(), dfv.end());
        cur = scalarLayer(model, weights, 0, cur, {});
    } else {
        cur = scalarLayer(model, weights, 0, dfv, {});
    }
    for (std::size_t i = 1; i < layers.size(); ++i)
        cur = scalarLayer(model, weights, i, cur, {});
    return cur;
}

/** Score of one pair: sigmoid (1 output), softmax match (2), sigmoid
 *  of the mean (more). */
inline float
scalarScore(const Model &model, const ModelWeights &weights,
            const std::vector<float> &qfv, const std::vector<float> &dfv)
{
    const std::vector<float> out = scalarRun(model, weights, qfv, dfv);
    DS_ASSERT(!out.empty());
    if (out.size() == 1)
        return scalarActivation(Activation::Sigmoid, out[0]);
    if (out.size() == 2) {
        float m = std::max(out[0], out[1]);
        float e0 = std::exp(out[0] - m);
        float e1 = std::exp(out[1] - m);
        return e1 / (e0 + e1);
    }
    float mean = 0.0f;
    for (float v : out)
        mean += v;
    mean /= static_cast<float>(out.size());
    return scalarActivation(Activation::Sigmoid, mean);
}

} // namespace deepstore::nn::testing

#endif // DEEPSTORE_TESTS_NN_SCALAR_REFERENCE_H
