/** @file Unit tests for the reference executor. */

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "nn/executor.h"
#include "nn/score_kernels.h"
#include "scalar_reference.h"

namespace deepstore::nn {
namespace {

/** Hand-built 2->1 FC so the expected output is computable by hand. */
TEST(Executor, FcMatMulByHand)
{
    Model m("toy", 1, true); // concat of two 1-d features -> 2 inputs
    m.addLayer(Layer::fc("fc", 2, 1, Activation::None));
    ModelWeights w;
    w.append(Tensor({1, 2}, {2.0f, 3.0f}), Tensor({1}, {0.5f}));
    Executor ex(m, w);
    auto out = ex.run({10.0f}, {100.0f});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FLOAT_EQ(out[0], 2.0f * 10.0f + 3.0f * 100.0f + 0.5f);
}

TEST(Executor, ReluClampsNegative)
{
    Model m("toy", 1, true);
    m.addLayer(Layer::fc("fc", 2, 1, Activation::ReLU));
    ModelWeights w;
    w.append(Tensor({1, 2}, {-1.0f, -1.0f}), Tensor({1}, {0.0f}));
    Executor ex(m, w);
    EXPECT_FLOAT_EQ(ex.run({1.0f}, {1.0f})[0], 0.0f);
}

TEST(Executor, ElementWiseCombiners)
{
    for (EwOp op : {EwOp::Add, EwOp::Subtract, EwOp::Multiply}) {
        Model m("toy", 2, false);
        m.addLayer(Layer::elementWise("fuse", op, 2));
        m.addLayer(Layer::fc("fc", 2, 1, Activation::None, false));
        ModelWeights w;
        w.append(Tensor(), Tensor());
        w.append(Tensor({1, 2}, {1.0f, 1.0f}), Tensor());
        Executor ex(m, w);
        float out = ex.run({3.0f, 4.0f}, {2.0f, 5.0f})[0];
        switch (op) {
          case EwOp::Add: EXPECT_FLOAT_EQ(out, 5.0f + 9.0f); break;
          case EwOp::Subtract: EXPECT_FLOAT_EQ(out, 1.0f - 1.0f); break;
          case EwOp::Multiply: EXPECT_FLOAT_EQ(out, 6.0f + 20.0f); break;
          default: FAIL();
        }
    }
}

TEST(Executor, DotProductCombiner)
{
    Model m("dot", 3, false);
    m.addLayer(Layer::elementWise("dot", EwOp::DotProduct, 3));
    ModelWeights w;
    w.append(Tensor(), Tensor());
    Executor ex(m, w);
    auto out = ex.run({1.0f, 2.0f, 3.0f}, {4.0f, 5.0f, 6.0f});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FLOAT_EQ(out[0], 4.0f + 10.0f + 18.0f);
}

TEST(Executor, ConvIdentityKernel)
{
    // 1x1 kernel with weight 1: convolution is identity.
    Model m("conv", 2, true); // concat -> 4 scalars = 2x2x1 image
    m.addLayer(Layer::conv2d("c", 2, 2, 1, 1, 1, 1, 1, 0,
                             Activation::None));
    ModelWeights w;
    w.append(Tensor({1, 1, 1, 1}, {1.0f}), Tensor({1}, {0.0f}));
    Executor ex(m, w);
    auto out = ex.run({1.0f, 2.0f}, {3.0f, 4.0f});
    ASSERT_EQ(out.size(), 4u);
    EXPECT_FLOAT_EQ(out[0], 1.0f);
    EXPECT_FLOAT_EQ(out[3], 4.0f);
}

TEST(Executor, ConvSumKernelWithPadding)
{
    // 3x3 all-ones kernel, pad 1: each output = sum of 3x3 neighborhood.
    Model m("conv", 2, true);
    m.addLayer(Layer::conv2d("c", 2, 2, 1, 3, 3, 1, 1, 1,
                             Activation::None));
    ModelWeights w;
    w.append(Tensor({3, 3, 1, 1},
                    std::vector<float>(9, 1.0f)),
             Tensor({1}, {0.0f}));
    Executor ex(m, w);
    auto out = ex.run({1.0f, 2.0f}, {3.0f, 4.0f});
    ASSERT_EQ(out.size(), 4u);
    // Input image [[1,2],[3,4]]; with zero padding every output is the
    // sum of the in-bounds neighbors.
    EXPECT_FLOAT_EQ(out[0], 1 + 2 + 3 + 4);
    EXPECT_FLOAT_EQ(out[1], 1 + 2 + 3 + 4);
}

TEST(Executor, ScoreSigmoidFor1d)
{
    std::vector<float> out{0.0f};
    EXPECT_FLOAT_EQ(Executor::scoreFromOutput(out), 0.5f);
    out[0] = 100.0f;
    EXPECT_NEAR(Executor::scoreFromOutput(out), 1.0f, 1e-6);
}

TEST(Executor, ScoreSoftmaxFor2d)
{
    EXPECT_FLOAT_EQ(Executor::scoreFromOutput({1.0f, 1.0f}), 0.5f);
    EXPECT_GT(Executor::scoreFromOutput({0.0f, 5.0f}), 0.99f);
    EXPECT_LT(Executor::scoreFromOutput({5.0f, 0.0f}), 0.01f);
}

TEST(Executor, ScoreIsBounded)
{
    // Property: any output vector maps into [0, 1].
    for (float v : {-100.0f, -1.0f, 0.0f, 3.5f, 80.0f}) {
        float s = Executor::scoreFromOutput({v, v / 2, -v});
        EXPECT_GE(s, 0.0f);
        EXPECT_LE(s, 1.0f);
    }
}

TEST(Executor, RejectsWrongFeatureSize)
{
    Model m("toy", 4, true);
    m.addLayer(Layer::fc("fc", 8, 1));
    auto w = ModelWeights::random(m, 1);
    Executor ex(m, w);
    EXPECT_THROW(ex.run({1.0f}, {1.0f, 2.0f, 3.0f, 4.0f}), FatalError);
}

TEST(Executor, RejectsMismatchedWeights)
{
    Model m("toy", 4, true);
    m.addLayer(Layer::fc("fc", 8, 1));
    ModelWeights w; // empty
    EXPECT_THROW(Executor(m, w), FatalError);
}

TEST(Executor, DeterministicAcrossRuns)
{
    Model m("tir", 512, false);
    m.addLayer(Layer::elementWise("fuse", EwOp::Multiply, 512));
    m.addLayer(Layer::fc("fc1", 512, 64));
    m.addLayer(Layer::fc("fc2", 64, 2, Activation::None));
    auto w = ModelWeights::random(m, 99);
    Executor ex(m, w);
    std::vector<float> q(512), d(512);
    for (int i = 0; i < 512; ++i) {
        q[static_cast<size_t>(i)] = 0.01f * static_cast<float>(i % 17);
        d[static_cast<size_t>(i)] = 0.02f * static_cast<float>(i % 13);
    }
    EXPECT_FLOAT_EQ(ex.score(q, d), ex.score(q, d));
}

/** A model plus weights; the Executor binds to both by reference. */
struct Net
{
    Model model;
    ModelWeights weights;
};

Net
withWeights(Model m, std::uint64_t seed)
{
    auto w = ModelWeights::random(m, seed);
    return Net{std::move(m), std::move(w)};
}

/**
 * One model per layer kind and option the executor serves: every
 * element-wise fuse, concatenated inputs, FC with and without bias
 * under every activation, Conv2D with padding and stride, and final
 * output widths 1, 2 and more than 2.
 */
std::vector<Net>
coverageNets()
{
    std::vector<Net> nets;
    {
        Model m("add", 12, false);
        m.addLayer(Layer::elementWise("fuse", EwOp::Add, 12));
        m.addLayer(Layer::fc("fc1", 12, 5, Activation::ReLU));
        m.addLayer(Layer::fc("fc2", 5, 1, Activation::None));
        nets.push_back(withWeights(std::move(m), 1));
    }
    {
        Model m("sub", 12, false);
        m.addLayer(Layer::elementWise("fuse", EwOp::Subtract, 12));
        m.addLayer(
            Layer::fc("fc1", 12, 7, Activation::Sigmoid, false));
        m.addLayer(Layer::fc("fc2", 7, 2, Activation::None));
        nets.push_back(withWeights(std::move(m), 2));
    }
    {
        Model m("mul", 12, false);
        m.addLayer(Layer::elementWise("fuse", EwOp::Multiply, 12));
        m.addLayer(Layer::fc("fc1", 12, 9, Activation::ReLU));
        m.addLayer(Layer::fc("fc2", 9, 3, Activation::Sigmoid));
        nets.push_back(withWeights(std::move(m), 3));
    }
    {
        Model m("dot", 12, false);
        m.addLayer(Layer::elementWise("dot", EwOp::DotProduct, 12));
        nets.push_back(withWeights(std::move(m), 4));
    }
    {
        Model m("dot-fc", 12, false);
        m.addLayer(Layer::elementWise("dot", EwOp::DotProduct, 12));
        m.addLayer(Layer::fc("fc", 1, 6, Activation::None, false));
        nets.push_back(withWeights(std::move(m), 5));
    }
    {
        Model m("concat", 6, true);
        m.addLayer(Layer::fc("fc1", 12, 10, Activation::ReLU, false));
        m.addLayer(Layer::fc("fc2", 10, 1, Activation::Sigmoid, false));
        nets.push_back(withWeights(std::move(m), 6));
    }
    {
        Model m("dfv-only", 12, false);
        m.addLayer(Layer::fc("fc", 12, 2, Activation::Sigmoid));
        nets.push_back(withWeights(std::move(m), 7));
    }
    {
        // Concatenated 8 + 8 scalars as a 4x4x1 image.
        Model m("conv-pad", 8, true);
        m.addLayer(Layer::conv2d("c", 4, 4, 1, 3, 3, 2, 1, 1,
                                 Activation::ReLU));
        m.addLayer(Layer::fc("fc", 32, 2, Activation::None));
        nets.push_back(withWeights(std::move(m), 8));
    }
    {
        // A 3x3x2 database feature, strided and padded.
        Model m("conv-stride", 18, false);
        m.addLayer(Layer::conv2d("c", 3, 3, 2, 2, 2, 3, 2, 1,
                                 Activation::Sigmoid));
        m.addLayer(Layer::fc("fc", 12, 4, Activation::None));
        nets.push_back(withWeights(std::move(m), 9));
    }
    {
        Model m("conv-plain", 16, false);
        m.addLayer(Layer::conv2d("c", 4, 4, 1, 2, 2, 1, 1, 0,
                                 Activation::None));
        nets.push_back(withWeights(std::move(m), 10));
    }
    return nets;
}

/** Gaussian values with some exact zeros of both signs. */
std::vector<float>
randomFloats(Rng &rng, std::size_t n)
{
    std::vector<float> v(n);
    for (auto &x : v) {
        const double u = rng.uniform();
        x = u < 0.05 ? 0.0f
                     : (u < 0.1 ? -0.0f
                                : static_cast<float>(rng.gaussian()));
    }
    return v;
}

/**
 * Score batches of n in {0, 1, 7, 8, 9, 29} features on every
 * coverage model through `score_batch(net, q, dfvs, n, scores)` and
 * compare them bytewise with the scalar loop.
 */
template <class ScoreBatch>
void
expectBatchesMatchScalarLoop(ScoreBatch score_batch)
{
    const std::size_t lanes = Executor::kLanes;
    const std::size_t counts[] = {0,         1,         lanes - 1,
                                  lanes,     lanes + 1, 3 * lanes + 5};
    for (const Net &net : coverageNets()) {
        const auto dim = static_cast<std::size_t>(net.model.featureDim());
        Rng rng(0xBA7C0DEULL + dim);
        const std::vector<float> q = randomFloats(rng, dim);
        for (std::size_t n : counts) {
            const std::vector<float> dfvs = randomFloats(rng, n * dim);
            std::vector<float> got(n + 1, -1.0f), want(n + 1, -1.0f);
            score_batch(net, q, dfvs.data(), n, got.data());
            for (std::size_t j = 0; j < n; ++j) {
                const std::vector<float> d(
                    dfvs.begin() + static_cast<std::ptrdiff_t>(j * dim),
                    dfvs.begin() +
                        static_cast<std::ptrdiff_t>((j + 1) * dim));
                want[j] = testing::scalarScore(net.model, net.weights,
                                               q, d);
            }
            // The slot past the batch must stay untouched.
            EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                     (n + 1) * sizeof(float)))
                << net.model.name() << " n=" << n;
        }
    }
}

/** The same check on one ISA instantiation of the kernel. */
void
expectKernelMatchesScalarLoop(kernels::ScoreFn kernel)
{
    expectBatchesMatchScalarLoop([&](const Net &net,
                                     const std::vector<float> &q,
                                     const float *dfvs, std::size_t n,
                                     float *scores) {
        kernel(net.model, net.weights, q.data(), dfvs, n, scores);
    });
}

TEST(ExecutorBatch, ScoresAreBitIdenticalToScalarLoop)
{
    expectBatchesMatchScalarLoop([](const Net &net,
                                    const std::vector<float> &q,
                                    const float *dfvs, std::size_t n,
                                    float *scores) {
        Executor(net.model, net.weights).scoreBatch(q, dfvs, n, scores);
    });
}

TEST(ExecutorBatch, BaselineKernelIsBitIdenticalToScalarLoop)
{
    expectKernelMatchesScalarLoop(kernels::scoreBaseline);
}

TEST(ExecutorBatch, Avx2KernelIsBitIdenticalToScalarLoop)
{
    if (!kernels::hasAvx2())
        GTEST_SKIP() << "CPU lacks AVX2";
    expectKernelMatchesScalarLoop(kernels::scoreAvx2);
}

TEST(ExecutorBatch, OneLaneRunAndScoreMatchScalarLoop)
{
    for (const Net &net : coverageNets()) {
        Executor ex(net.model, net.weights);
        const auto dim = static_cast<std::size_t>(net.model.featureDim());
        Rng rng(0x51A1ULL + dim);
        for (int rep = 0; rep < 4; ++rep) {
            const std::vector<float> q = randomFloats(rng, dim);
            const std::vector<float> d = randomFloats(rng, dim);
            const std::vector<float> out = ex.run(q, d);
            const std::vector<float> ref =
                testing::scalarRun(net.model, net.weights, q, d);
            ASSERT_EQ(out.size(), ref.size()) << net.model.name();
            EXPECT_EQ(0, std::memcmp(out.data(), ref.data(),
                                     out.size() * sizeof(float)))
                << net.model.name();
            const float s = ex.score(q, d);
            const float rs =
                testing::scalarScore(net.model, net.weights, q, d);
            EXPECT_EQ(0, std::memcmp(&s, &rs, sizeof(float)))
                << net.model.name();
        }
    }
}

TEST(ExecutorBatch, RejectsWrongQuerySize)
{
    Model m("toy", 4, false);
    m.addLayer(Layer::elementWise("dot", EwOp::DotProduct, 4));
    ModelWeights w;
    w.append(Tensor(), Tensor());
    Executor ex(m, w);
    std::vector<float> d(4, 1.0f);
    float s = 0.0f;
    EXPECT_THROW(ex.scoreBatch({1.0f}, d.data(), 1, &s), FatalError);
}

} // namespace
} // namespace deepstore::nn
