#include "workloads/feature_gen.h"

#include "common/logging.h"
#include "common/rng.h"

namespace deepstore::workloads {

namespace {

void
checkDim(std::int64_t dim)
{
    if (dim <= 0)
        fatal("feature dimension must be positive");
}

/** Topic `topic`'s centroid: `dim` uniforms in [-1, 1) from its own
 *  stream. */
void
drawCentroid(std::uint64_t seed, std::uint64_t topic, float *c,
             std::size_t dim)
{
    Rng rng(seed * 1315423911ULL + topic);
    for (std::size_t i = 0; i < dim; ++i)
        c[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
}

/** Add the gaussian jitter of `jitter_seed` to a centroid copy. */
void
addJitter(std::uint64_t seed, double noise, std::uint64_t jitter_seed,
          std::vector<float> &f)
{
    Rng rng(seed ^ (jitter_seed * 0x2545F4914F6CDD1DULL + 17));
    for (auto &v : f)
        v += static_cast<float>(rng.gaussian(0.0, noise));
}

} // namespace

FeatureGenerator::FeatureGenerator(std::int64_t dim,
                                   std::uint64_t num_topics,
                                   std::uint64_t seed, double noise)
    : dim_(dim), numTopics_(num_topics), seed_(seed), noise_(noise)
{
    checkDim(dim);
    if (num_topics == 0)
        fatal("need at least one topic");
    const auto d = static_cast<std::size_t>(dim);
    centroids_.resize(num_topics * d);
    for (std::uint64_t t = 0; t < num_topics; ++t)
        drawCentroid(seed, t, centroids_.data() + t * d, d);
}

void
FeatureGenerator::checkTopic(std::uint64_t topic) const
{
    if (topic >= numTopics_)
        fatal("topic %llu out of range (%llu topics)",
              static_cast<unsigned long long>(topic),
              static_cast<unsigned long long>(numTopics_));
}

std::uint64_t
FeatureGenerator::topicOf(std::uint64_t index) const
{
    // Topic assignment via a splitmix-style hash of the index so the
    // database interleaves topics (matching the striped layout).
    std::uint64_t x = index + seed_ * 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return (x ^ (x >> 31)) % numTopics_;
}

std::vector<float>
FeatureGenerator::centroid(std::uint64_t topic) const
{
    checkTopic(topic);
    const auto d = static_cast<std::size_t>(dim_);
    const auto first =
        centroids_.begin() + static_cast<std::ptrdiff_t>(topic * d);
    return {first, first + static_cast<std::ptrdiff_t>(d)};
}

std::vector<float>
FeatureGenerator::featureForTopic(std::uint64_t topic,
                                  std::uint64_t jitter_seed) const
{
    std::vector<float> f = centroid(topic);
    addJitter(seed_, noise_, jitter_seed, f);
    return f;
}

std::vector<float>
FeatureGenerator::topicFeature(std::int64_t dim, std::uint64_t seed,
                               double noise, std::uint64_t topic,
                               std::uint64_t jitter_seed)
{
    checkDim(dim);
    std::vector<float> f(static_cast<std::size_t>(dim));
    drawCentroid(seed, topic, f.data(), f.size());
    addJitter(seed, noise, jitter_seed, f);
    return f;
}

std::vector<float>
FeatureGenerator::featureAt(std::uint64_t index) const
{
    return featureForTopic(topicOf(index), index);
}

} // namespace deepstore::workloads
