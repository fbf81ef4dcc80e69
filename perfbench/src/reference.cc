#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <set>
#include <stdexcept>

namespace perfbench {

namespace ds = deepstore;

namespace {

double
sigmoid(double x)
{
    return 1.0 / (1.0 + std::exp(-x));
}

std::string
describe(const char *what, std::uint64_t id, double got, double want)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s: id %llu score %.9g vs %.9g",
                  what, static_cast<unsigned long long>(id), got, want);
    return buf;
}

} // namespace

ReferenceScorer::ReferenceScorer(const ds::nn::ModelBundle &bundle)
{
    const auto &layers = bundle.model.layers();
    dim_ = static_cast<std::size_t>(bundle.model.featureDim());
    if (layers.size() == 1 &&
        layers[0].kind == ds::nn::LayerKind::ElementWise &&
        layers[0].ewOp == ds::nn::EwOp::DotProduct) {
        dot_ = true;
        return;
    }
    const bool shape_ok =
        layers.size() == 3 &&
        layers[0].kind == ds::nn::LayerKind::ElementWise &&
        layers[0].ewOp == ds::nn::EwOp::Multiply &&
        layers[1].kind == ds::nn::LayerKind::FullyConnected &&
        layers[1].activation != ds::nn::Activation::Sigmoid &&
        layers[2].kind == ds::nn::LayerKind::FullyConnected &&
        layers[2].activation == ds::nn::Activation::None &&
        layers[2].fcOut > 2;
    if (!shape_ok)
        throw std::invalid_argument(
            "reference scorer supports a dot fuse or a multiply fuse "
            "+ FC + linear FC with a mean-pooled output");
    hidden_ = static_cast<std::size_t>(layers[1].fcOut);
    hiddenRelu_ = layers[1].activation == ds::nn::Activation::ReLU;

    const auto &w1 = bundle.weights.kernel(1);
    const auto &b1 = bundle.weights.bias(1);
    w1_.assign(w1.data(), w1.data() + hidden_ * dim_);
    w1q_ = w1_;
    b1_.assign(hidden_, 0.0);
    if (layers[1].fcBias)
        b1_.assign(b1.data(), b1.data() + hidden_);

    const auto outs = static_cast<std::size_t>(layers[2].fcOut);
    const auto &w2 = bundle.weights.kernel(2);
    const auto &b2 = bundle.weights.bias(2);
    w2bar_.assign(hidden_, 0.0);
    for (std::size_t o = 0; o < outs; ++o) {
        for (std::size_t j = 0; j < hidden_; ++j)
            w2bar_[j] += w2[o * hidden_ + j];
        if (layers[2].fcBias)
            b2bar_ += b2[o];
    }
    for (double &v : w2bar_)
        v /= static_cast<double>(outs);
    b2bar_ /= static_cast<double>(outs);
}

void
ReferenceScorer::setQuery(const std::vector<float> &query)
{
    if (query.size() != dim_)
        throw std::invalid_argument("reference query has wrong size");
    if (dot_) {
        query_.assign(query.begin(), query.end());
        return;
    }
    // W1 (q * d) == (W1 diag(q)) d: rescale the columns once per query.
    for (std::size_t o = 0; o < hidden_; ++o)
        for (std::size_t i = 0; i < dim_; ++i)
            w1q_[o * dim_ + i] = w1_[o * dim_ + i] * query[i];
}

double
ReferenceScorer::score(const float *d) const
{
    if (dot_) {
        double acc = 0.0;
        for (std::size_t i = 0; i < dim_; ++i)
            acc += query_[i] * d[i];
        return sigmoid(acc);
    }
    double z = b2bar_;
    for (std::size_t o = 0; o < hidden_; ++o) {
        // Four independent partial sums keep the FP adds pipelined.
        const double *row = &w1q_[o * dim_];
        double a[4] = {0.0, 0.0, 0.0, 0.0};
        std::size_t i = 0;
        for (; i + 4 <= dim_; i += 4)
            for (std::size_t l = 0; l < 4; ++l)
                a[l] += row[i + l] * d[i + l];
        for (; i < dim_; ++i)
            a[0] += row[i] * d[i];
        double h = (a[0] + a[1]) + (a[2] + a[3]) + b1_[o];
        if (hiddenRelu_ && h < 0.0)
            h = 0.0;
        z += w2bar_[o] * h;
    }
    return sigmoid(z);
}

std::vector<double>
ReferenceScorer::scoreAll(const std::vector<float> &features,
                          std::uint64_t count) const
{
    if (features.size() < count * dim_)
        throw std::invalid_argument("reference feature block too short");
    std::vector<double> out(count);
    for (std::uint64_t f = 0; f < count; ++f)
        out[f] = score(&features[f * dim_]);
    return out;
}

std::string
checkTopK(const std::vector<double> &reference,
          const std::vector<ds::core::ScoredResult> &topk, std::size_t k,
          bool cache_hit)
{
    const std::size_t n = reference.size();
    std::set<std::uint64_t> seen;
    for (std::size_t r = 0; r < topk.size(); ++r) {
        const auto &e = topk[r];
        if (e.featureId >= n)
            return describe("id out of range", e.featureId, e.score, 0.0);
        if (!seen.insert(e.featureId).second)
            return describe("duplicate id", e.featureId, e.score, 0.0);
        const double want = reference[e.featureId];
        if (std::fabs(e.score - want) > kScoreTolerance)
            return describe("score mismatch", e.featureId, e.score, want);
        if (r > 0 && e.score > topk[r - 1].score)
            return describe("not best-first", e.featureId, e.score,
                            topk[r - 1].score);
    }
    if (cache_hit)
        return topk.size() <= k ? "" : "cache hit returned > k entries";

    const std::size_t want_size = std::min(k, n);
    if (topk.size() != want_size)
        return "top-K has " + std::to_string(topk.size()) +
               " entries, want " + std::to_string(want_size);
    if (want_size == 0)
        return "";
    std::vector<double> sorted = reference;
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<long>(want_size - 1),
                     sorted.end(), std::greater<>());
    const double kth = sorted[want_size - 1];
    for (const auto &e : topk)
        if (reference[e.featureId] < kth - kScoreTolerance)
            return describe("below the k-th best", e.featureId,
                            reference[e.featureId], kth);
    for (std::uint64_t i = 0; i < n; ++i)
        if (reference[i] > kth + kScoreTolerance && !seen.count(i))
            return describe("missing a clear top-K id", i, reference[i],
                            kth);
    return "";
}

double
kthGap(std::vector<double> reference, std::size_t k)
{
    if (reference.size() <= k || k == 0)
        return 0.0;
    std::sort(reference.begin(), reference.end(), std::greater<>());
    return reference[k - 1] - reference[k];
}

std::string
checkSelfTest()
{
    // A tiny database with well-separated scores.
    constexpr std::size_t kK = 4;
    std::vector<double> ref;
    for (int i = 0; i < 32; ++i)
        ref.push_back(0.1 + 0.025 * ((i * 7) % 32));
    std::vector<std::size_t> order(ref.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return ref[a] > ref[b];
              });
    std::vector<ds::core::ScoredResult> good;
    for (std::size_t r = 0; r < kK; ++r)
        good.push_back(ds::core::ScoredResult{
            order[r], 0, static_cast<float>(ref[order[r]])});
    if (auto why = checkTopK(ref, good, kK, false); !why.empty())
        return "rejected a correct top-K: " + why;

    std::vector<std::pair<const char *,
                          std::vector<ds::core::ScoredResult>>>
        bad;
    auto swapped = good; // a clear top-K id replaced by a lower one
    swapped.back() = ds::core::ScoredResult{
        order[kK + 3], 0, static_cast<float>(ref[order[kK + 3]])};
    bad.emplace_back("wrong id", swapped);
    auto rescored = good; // right ids, wrong score
    rescored[1].score += 0.01f;
    bad.emplace_back("wrong score", rescored);
    auto shortened = good;
    shortened.pop_back();
    bad.emplace_back("missing entry", shortened);
    auto reordered = good;
    std::swap(reordered[0], reordered[2]);
    bad.emplace_back("wrong order", reordered);
    auto duplicated = good;
    duplicated[3] = duplicated[2];
    bad.emplace_back("duplicate id", duplicated);
    for (const auto &[what, topk] : bad)
        if (checkTopK(ref, topk, kK, false).empty())
            return std::string("accepted a corrupted top-K (") + what +
                   ")";
    if (checkTopK(ref, rescored, kK, true).empty())
        return "accepted a cache hit with a wrong score";
    return "";
}

} // namespace perfbench
