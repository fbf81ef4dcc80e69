/** @file Tests for the synthetic feature generator. */

#include <cstring>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "workloads/feature_gen.h"
#include "workloads/query_universe.h"

namespace deepstore::workloads {
namespace {

TEST(FeatureGen, DeterministicPerIndex)
{
    FeatureGenerator gen(64, 10, 7);
    auto a = gen.featureAt(42);
    auto b = gen.featureAt(42);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 64u);
}

TEST(FeatureGen, DifferentIndicesDiffer)
{
    FeatureGenerator gen(64, 10, 7);
    EXPECT_NE(gen.featureAt(1), gen.featureAt(2));
}

TEST(FeatureGen, DifferentSeedsGiveDifferentDatasets)
{
    FeatureGenerator a(64, 10, 1), b(64, 10, 2);
    EXPECT_NE(a.featureAt(0), b.featureAt(0));
}

TEST(FeatureGen, TopicsCoverRange)
{
    FeatureGenerator gen(16, 5, 9);
    std::vector<int> hits(5, 0);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        std::uint64_t t = gen.topicOf(i);
        ASSERT_LT(t, 5u);
        ++hits[t];
    }
    for (int h : hits)
        EXPECT_GT(h, 100); // roughly balanced
}

TEST(FeatureGen, SameTopicFeaturesAreCloserThanCrossTopic)
{
    // The semantic property the Query Cache relies on.
    FeatureGenerator gen(128, 4, 11, /*noise=*/0.2);
    auto dist = [](const std::vector<float> &x,
                   const std::vector<float> &y) {
        double d = 0;
        for (std::size_t i = 0; i < x.size(); ++i)
            d += (x[i] - y[i]) * (x[i] - y[i]);
        return d;
    };
    double same = 0, cross = 0;
    int n = 50;
    for (int i = 0; i < n; ++i) {
        auto a = gen.featureForTopic(0, static_cast<std::uint64_t>(i));
        auto b = gen.featureForTopic(
            0, static_cast<std::uint64_t>(i) + 1000);
        auto c = gen.featureForTopic(1, static_cast<std::uint64_t>(i));
        same += dist(a, b);
        cross += dist(a, c);
    }
    EXPECT_LT(same, cross * 0.5);
}

TEST(FeatureGen, RejectsBadConfig)
{
    EXPECT_THROW(FeatureGenerator(0, 5, 1), FatalError);
    EXPECT_THROW(FeatureGenerator(16, 0, 1), FatalError);
    EXPECT_THROW(FeatureGenerator(16, 5, 1).centroid(5), FatalError);
    EXPECT_THROW(FeatureGenerator::topicFeature(0, 1, 0.1, 0, 0),
                 FatalError);
}

/** A feature as the generator drew it before it kept its centroids:
 *  the topic's centroid from its own stream, then the jitter. */
std::vector<float>
drawnFeature(std::int64_t dim, std::uint64_t seed, double noise,
             std::uint64_t topic, std::uint64_t jitter_seed)
{
    Rng crng(seed * 1315423911ULL + topic);
    std::vector<float> f(static_cast<std::size_t>(dim));
    for (auto &v : f)
        v = static_cast<float>(crng.uniform(-1.0, 1.0));
    Rng jrng(seed ^ (jitter_seed * 0x2545F4914F6CDD1DULL + 17));
    for (auto &v : f)
        v += static_cast<float>(jrng.gaussian(0.0, noise));
    return f;
}

void
expectSameBytes(const std::vector<float> &got,
                const std::vector<float> &want)
{
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(float)));
}

TEST(FeatureGen, KeptCentroidsGiveTheDrawnBytes)
{
    FeatureGenerator gen(128, 16, 5);
    for (std::uint64_t index : {0ULL, 1ULL, 7ULL, 1000ULL, 123456789ULL}) {
        SCOPED_TRACE(index);
        expectSameBytes(gen.featureAt(index),
                        drawnFeature(128, 5, 0.25, gen.topicOf(index),
                                     index));
    }
}

TEST(FeatureGen, QueryFeaturesGiveTheDrawnBytes)
{
    QueryUniverseConfig config;
    const QueryUniverse universe(config);
    for (std::uint64_t id : {0ULL, 3ULL, 4321ULL, 99999ULL}) {
        SCOPED_TRACE(id);
        expectSameBytes(universe.featureOf(id, 96),
                        drawnFeature(96, config.seed, 0.15,
                                     universe.topicOf(id),
                                     id * 2654435761ULL + 7));
    }
}

} // namespace
} // namespace deepstore::workloads
