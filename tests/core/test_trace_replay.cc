/** @file Tests for trace replay on the live engine. */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/trace_replay.h"

namespace deepstore::core {
namespace {

workloads::QueryUniverse
universe()
{
    workloads::QueryUniverseConfig cfg;
    cfg.numQueries = 400;
    cfg.numTopics = 20;
    return workloads::QueryUniverse(cfg);
}

nn::ModelBundle
dotModel(std::int64_t dim)
{
    nn::Model m("dot-scn", dim, false);
    m.addLayer(nn::Layer::elementWise("dot", nn::EwOp::DotProduct,
                                      dim));
    auto w = nn::ModelWeights::random(m, 1);
    return nn::ModelBundle{std::move(m), std::move(w)};
}

struct EngineRig
{
    static constexpr std::int64_t kDim = 16;
    DeepStore ds{DeepStoreConfig{}};
    std::uint64_t db = 0;
    std::uint64_t scn = 0;

    EngineRig()
    {
        workloads::FeatureGenerator gen(kDim, 8, 11);
        db = ds.writeDB(std::make_shared<GeneratedFeatureSource>(
            gen, 100));
        scn = ds.loadModel(dotModel(kDim));
    }

    EngineReplayConfig
    config(const workloads::QueryUniverse &u) const
    {
        EngineReplayConfig cfg;
        cfg.k = 3;
        cfg.modelId = scn;
        cfg.dbId = db;
        cfg.featureDim = kDim;
        cfg.universe = &u;
        return cfg;
    }
};

TEST(TraceReplay, EngineReplayCompletesEveryQuery)
{
    auto u = universe();
    EngineRig rig;
    auto trace = workloads::QueryTrace::generate(
        u, 30, 200.0, workloads::Popularity::Uniform, 0.0, 6);
    auto stats =
        replayTrace(rig.ds, trace, rig.config(u));
    EXPECT_EQ(stats.queries, 30u);
    EXPECT_DOUBLE_EQ(stats.missRate, 1.0); // no QC configured
    EXPECT_LE(stats.p50Seconds, stats.p95Seconds);
    EXPECT_LE(stats.p95Seconds, stats.p99Seconds);
    EXPECT_LE(stats.p99Seconds, stats.maxSeconds);
    EXPECT_GT(stats.throughput, 0.0);
    EXPECT_EQ(rig.ds.inFlight(), 0u);
}

TEST(TraceReplay, EngineReplayOverlapBeatsSerialService)
{
    // A burst of same-database queries overlaps on the accelerator
    // complex: throughput clears 2x what serial service of the
    // single-query latency would allow.
    auto u = universe();
    EngineRig rig;

    double single =
        rig.ds
            .getResults(rig.ds.querySync(
                u.featureOf(0, EngineRig::kDim), 3, rig.scn, rig.db,
                0, 0))
            .latencySeconds;

    std::vector<workloads::TraceRecord> recs;
    for (int i = 0; i < 16; ++i)
        recs.push_back(workloads::TraceRecord{
            0.0, static_cast<std::uint64_t>(i + 1)});
    workloads::QueryTrace burst(std::move(recs));
    auto stats =
        replayTrace(rig.ds, burst, rig.config(u));
    EXPECT_EQ(stats.queries, 16u);
    EXPECT_GT(stats.throughput, 2.0 / single);
    // Interleaving is visible as >1 accelerator-time occupancy.
    EXPECT_GT(stats.utilization, 1.0);
}

TEST(TraceReplay, EngineReplayUsesTheEngineQueryCache)
{
    auto u = universe();
    EngineRig rig;
    std::uint64_t qcn = rig.ds.loadModel(
        dotModel(EngineRig::kDim));
    rig.ds.setQC(qcn, 0.25, 0.99, 16);

    // Ten distinct queries, each repeated once: repeats hit.
    std::vector<workloads::TraceRecord> recs;
    for (int i = 0; i < 20; ++i)
        recs.push_back(workloads::TraceRecord{
            1e-3 * static_cast<double>(i),
            static_cast<std::uint64_t>(i % 10)});
    workloads::QueryTrace trace(std::move(recs));
    auto stats =
        replayTrace(rig.ds, trace, rig.config(u));
    EXPECT_EQ(stats.queries, 20u);
    EXPECT_LT(stats.missRate, 1.0);
    EXPECT_GT(rig.ds.queryCache()->hits(), 0u);
}

TEST(TraceReplay, EngineReplayValidatesConfig)
{
    auto u = universe();
    EngineRig rig;
    workloads::QueryTrace trace(std::vector<workloads::TraceRecord>{
        workloads::TraceRecord{0.0, 1}});
    EngineReplayConfig bad = rig.config(u);
    bad.universe = nullptr;
    EXPECT_THROW(replayTrace(rig.ds, trace, bad),
                 FatalError);
    bad = rig.config(u);
    bad.featureDim = 0;
    EXPECT_THROW(replayTrace(rig.ds, trace, bad),
                 FatalError);
}

TEST(TraceReplay, PercentilesAreOrdered)
{
    auto u = universe();
    EngineRig rig;
    auto trace = workloads::QueryTrace::generate(
        u, 1000, 30.0, workloads::Popularity::Zipf, 0.7, 5);
    auto stats = replayTrace(rig.ds, trace, rig.config(u));
    EXPECT_LE(stats.p50Seconds, stats.p95Seconds);
    EXPECT_LE(stats.p95Seconds, stats.p99Seconds);
    EXPECT_LE(stats.p99Seconds, stats.maxSeconds);
    EXPECT_GT(stats.throughput, 0.0);
}

} // namespace
} // namespace deepstore::core
