/**
 * @file
 * Cross-module integration tests: SSD lifecycle under churn (write /
 * trim / rewrite with garbage collection and wear leveling), and the
 * full DeepStore engine running multi-database, cached query
 * workloads end-to-end.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/deepstore.h"
#include "nn/semantic.h"
#include "workloads/apps.h"
#include "workloads/query_universe.h"

namespace deepstore {
namespace {

ssd::FlashParams
tinyParams()
{
    ssd::FlashParams p;
    p.channels = 4;
    p.chipsPerChannel = 2;
    p.planesPerChip = 2;
    p.blocksPerPlane = 8;
    p.pagesPerBlock = 8;
    return p;
}

TEST(EndToEnd, SsdSurvivesWriteTrimChurn)
{
    sim::EventQueue events;
    ssd::Ssd dev(events, tinyParams());
    std::uint64_t super_pages = dev.ftl().superblockPages(); // 128

    for (int round = 0; round < 10; ++round) {
        bool wrote = false, trimmed = false;
        dev.hostWrite(0, super_pages, [&](Tick) { wrote = true; });
        events.run();
        ASSERT_TRUE(wrote) << round;
        dev.hostTrim(0, super_pages, [&](Tick) { trimmed = true; });
        events.run();
        ASSERT_TRUE(trimmed) << round;
    }
    // All superblocks recycled, erases spread evenly by the
    // wear-leveling allocator.
    EXPECT_EQ(dev.ftl().freeSuperblocks(),
              dev.ftl().superblockCount());
    EXPECT_EQ(dev.ftl().totalErases(), 10u);
    EXPECT_LE(dev.ftl().eraseSpread(), 2u);
    EXPECT_GT(dev.stats().find(StatId::FlashBlockErases)->value(), 0.0);
}

TEST(EndToEnd, TrimWithoutFullInvalidationCompletesFast)
{
    sim::EventQueue events;
    ssd::Ssd dev(events, tinyParams());
    dev.hostWrite(0, 64, nullptr);
    events.run();
    Tick start = events.now();
    Tick done = 0;
    dev.hostTrim(0, 8, [&](Tick t) { done = t; }); // partial only
    events.run();
    // No erase needed: just the command overhead.
    EXPECT_LT(ticksToSeconds(done - start), 10e-6);
}

TEST(EndToEnd, MultipleDatabasesAndModelsCoexist)
{
    core::DeepStore store(core::DeepStoreConfig{});

    // Database A: 64-d features; database B: 128-d features.
    workloads::FeatureGenerator gen_a(64, 8, 1), gen_b(128, 8, 2);
    std::uint64_t db_a = store.writeDB(
        std::make_shared<core::GeneratedFeatureSource>(gen_a, 300));
    std::uint64_t db_b = store.writeDB(
        std::make_shared<core::GeneratedFeatureSource>(gen_b, 200));

    auto make_dot = [](std::int64_t dim) {
        nn::Model m("dot" + std::to_string(dim), dim, false);
        m.addLayer(nn::Layer::elementWise("dot",
                                          nn::EwOp::DotProduct, dim));
        return nn::ModelBundle{m, nn::ModelWeights::random(m, 1)};
    };
    std::uint64_t model_a = store.loadModel(make_dot(64));
    std::uint64_t model_b = store.loadModel(make_dot(128));

    // Databases are striped back-to-back; both remain addressable.
    const auto &md_a = store.databaseInfo(db_a);
    const auto &md_b = store.databaseInfo(db_b);
    EXPECT_NE(md_a.startPpn, md_b.startPpn);

    auto ra = store.getResults(
        store.querySync(gen_a.featureAt(10), 3, model_a, db_a, 0, 0));
    auto rb = store.getResults(
        store.querySync(gen_b.featureAt(10), 3, model_b, db_b, 0, 0));
    EXPECT_EQ(ra.featuresScanned, 300u);
    EXPECT_EQ(rb.featuresScanned, 200u);
    // Model/database dimension mismatch across pairs is rejected.
    EXPECT_THROW(
        store.query(gen_a.featureAt(0), 3, model_a, db_b, 0, 0),
        FatalError);
}

TEST(EndToEnd, CachedQueryStreamBehavesLikeAlgorithm1)
{
    core::DeepStore store(core::DeepStoreConfig{});
    auto app = workloads::makeApp(workloads::AppId::TextQA);
    workloads::FeatureGenerator gen(app.scn.featureDim(), 12, 5,
                                    /*noise=*/0.15);
    std::uint64_t db = store.writeDB(
        std::make_shared<core::GeneratedFeatureSource>(gen, 400));
    std::uint64_t scn = store.loadModel(
        nn::ModelBundle{app.scn, nn::semanticWeights(app.scn)});
    std::uint64_t qcn = store.loadModel(
        nn::ModelBundle{app.qcn, nn::semanticWeights(app.qcn)});
    store.setQC(qcn, 0.15, 0.97, 8);

    // A Zipf-ish stream over 6 recurring intents.
    const std::uint64_t intents[] = {0, 1, 0, 2, 0, 1, 3, 0,
                                     1, 2, 0, 4, 0, 1, 5, 0};
    double miss_latency = 0.0;
    int misses = 0, hits = 0;
    double hit_latency = 0.0;
    for (std::size_t i = 0; i < std::size(intents); ++i) {
        auto qfv = gen.featureForTopic(intents[i],
                                       1000 + i); // fresh phrasing
        auto res = store.getResults(
            store.querySync(qfv, 4, scn, db, 0, 0));
        if (res.cacheHit) {
            ++hits;
            hit_latency += res.latencySeconds;
            EXPECT_EQ(res.featuresScanned, 4u);
        } else {
            ++misses;
            miss_latency += res.latencySeconds;
            EXPECT_EQ(res.featuresScanned, 400u);
        }
    }
    EXPECT_GT(hits, 4);   // recurring intents hit semantically
    EXPECT_GT(misses, 3); // new intents miss
    // With only a 400-feature database the QCN lookup is a sizable
    // share of a hit, so the gap is modest here (the Fig. 13 bench
    // shows the production-scale gap).
    EXPECT_LT(hit_latency / hits, 0.5 * miss_latency / misses);
    EXPECT_EQ(store.queryCache()->hits(),
              static_cast<std::uint64_t>(hits));
    // Simulated time advanced by every operation.
    EXPECT_GT(store.simulatedSeconds(), 0.0);
}

TEST(EndToEnd, RetryInjectionSurfacesInHostReads)
{
    ssd::FlashParams faulty = tinyParams();
    faulty.readRetryProbability = 0.5;
    faulty.readRetryPenalty = 9.0;

    sim::EventQueue ev_clean, ev_faulty;
    ssd::Ssd clean(ev_clean, tinyParams()), injected(ev_faulty, faulty);
    for (auto *dev : {&clean, &injected}) {
        dev->hostWrite(0, 32, nullptr);
        (dev == &clean ? ev_clean : ev_faulty).run();
    }
    Tick t0 = ev_clean.now(), t1 = ev_faulty.now();
    Tick d0 = 0, d1 = 0;
    clean.hostRead(0, 32, [&](Tick t) { d0 = t; });
    injected.hostRead(0, 32, [&](Tick t) { d1 = t; });
    ev_clean.run();
    ev_faulty.run();
    EXPECT_GT(ticksToSeconds(d1 - t1), ticksToSeconds(d0 - t0));
    EXPECT_GT(injected.stats().find(StatId::FlashReadRetries)->value(),
              0.0);
}

} // namespace
} // namespace deepstore
