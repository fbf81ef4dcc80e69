/** @file Integration tests for the DeepStore runtime and Table 2 API. */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include <gtest/gtest.h>

#include "../nn/scalar_reference.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/deepstore.h"
#include "workloads/apps.h"

namespace deepstore::core {
namespace {

/** A pure dot-product SCN: top-K by score == top-K by inner product,
 *  so results can be verified against brute force. */
nn::ModelBundle
dotModel(std::int64_t dim)
{
    nn::Model m("dot-scn", dim, false);
    m.addLayer(nn::Layer::elementWise("dot", nn::EwOp::DotProduct,
                                      dim));
    auto w = nn::ModelWeights::random(m, 1);
    return nn::ModelBundle{std::move(m), std::move(w)};
}

std::shared_ptr<FeatureSource>
randomDb(std::int64_t dim, std::uint64_t count, std::uint64_t seed)
{
    workloads::FeatureGenerator gen(dim, 16, seed);
    return std::make_shared<GeneratedFeatureSource>(gen, count);
}

DeepStoreConfig
smallConfig()
{
    DeepStoreConfig cfg;
    cfg.flash = ssd::FlashParams{};
    return cfg;
}

TEST(DeepStoreApi, WriteDbAssignsMetadata)
{
    DeepStore ds(smallConfig());
    std::uint64_t db = ds.writeDB(randomDb(64, 100, 1));
    const DbMetadata &md = ds.databaseInfo(db);
    EXPECT_EQ(md.numFeatures, 100u);
    EXPECT_EQ(md.featureBytes, 256u);
    EXPECT_GT(ds.simulatedSeconds(), 0.0);
}

TEST(DeepStoreApi, WriteDbRejectsEmpty)
{
    DeepStore ds(smallConfig());
    EXPECT_THROW(ds.writeDB(nullptr), FatalError);
    EXPECT_THROW(
        ds.writeDB(std::make_shared<VectorFeatureSource>(
            std::vector<std::vector<float>>{}, 4)),
        FatalError);
}

TEST(DeepStoreApi, ReadDbRoundTrips)
{
    DeepStore ds(smallConfig());
    std::vector<std::vector<float>> feats{
        {1.0f, 2.0f}, {3.0f, 4.0f}, {5.0f, 6.0f}};
    std::uint64_t db = ds.writeDB(
        std::make_shared<VectorFeatureSource>(feats, 2));
    auto got = ds.readDB(db, 1, 2);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], feats[1]);
    EXPECT_EQ(got[1], feats[2]);
    EXPECT_THROW(ds.readDB(db, 2, 5), FatalError);
}

TEST(DeepStoreApi, QueryFindsTrueTopK)
{
    DeepStore ds(smallConfig());
    const std::int64_t dim = 32;
    auto db_src = randomDb(dim, 200, 3);
    std::uint64_t db = ds.writeDB(db_src);
    std::uint64_t model = ds.loadModel(dotModel(dim));

    std::vector<float> qfv = db_src->featureAt(17);
    std::uint64_t qid = ds.querySync(qfv, 5, model, db, 0, 0);
    const QueryResult &res = ds.getResults(qid);
    ASSERT_EQ(res.topK.size(), 5u);
    EXPECT_EQ(res.featuresScanned, 200u);
    EXPECT_GT(res.latencySeconds, 0.0);

    // Brute-force oracle on inner products.
    std::vector<std::pair<double, std::uint64_t>> oracle;
    for (std::uint64_t i = 0; i < 200; ++i) {
        auto f = db_src->featureAt(i);
        double dot = 0;
        for (std::int64_t j = 0; j < dim; ++j)
            dot += qfv[static_cast<std::size_t>(j)] *
                   f[static_cast<std::size_t>(j)];
        oracle.emplace_back(-dot, i);
    }
    std::sort(oracle.begin(), oracle.end());
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(res.topK[i].featureId, oracle[i].second) << i;
}

/**
 * Run one full scan and one Query Cache hit with `bundle` and expect
 * both top-Ks to equal, id for id and bit for bit, the best k of a
 * one-feature scalar loop over the same source.
 */
void
expectScanMatchesScalarLoop(const nn::ModelBundle &bundle)
{
    const std::int64_t dim = bundle.model.featureDim();
    const std::size_t n = 150, k = 10;
    Rng rng(21);
    auto gauss = [&rng, dim] {
        std::vector<float> v(static_cast<std::size_t>(dim));
        for (auto &x : v)
            x = static_cast<float>(0.3 * rng.gaussian());
        return v;
    };
    std::vector<std::vector<float>> feats;
    for (std::size_t i = 0; i < n; ++i)
        feats.push_back(gauss());
    const std::vector<float> qfv = gauss();

    std::vector<std::pair<float, std::uint64_t>> ref;
    for (std::uint64_t i = 0; i < n; ++i)
        ref.emplace_back(nn::testing::scalarScore(bundle.model,
                                                  bundle.weights, qfv,
                                                  feats[i]),
                         i);
    std::stable_sort(ref.begin(), ref.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });

    DeepStore ds(smallConfig());
    std::uint64_t db = ds.writeDB(
        std::make_shared<VectorFeatureSource>(feats, dim));
    std::uint64_t scn = ds.loadModel(bundle);
    ds.setQC(ds.loadModel(dotModel(dim)), /*threshold=*/0.25,
             /*accuracy=*/0.99, /*capacity=*/16);
    for (bool hit : {false, true}) {
        const QueryResult &res =
            ds.getResults(ds.querySync(qfv, k, scn, db, 0, 0));
        EXPECT_EQ(res.cacheHit, hit);
        ASSERT_EQ(res.topK.size(), k);
        for (std::size_t i = 0; i < k; ++i) {
            EXPECT_EQ(res.topK[i].featureId, ref[i].second)
                << bundle.model.name() << " rank " << i;
            EXPECT_EQ(0, std::memcmp(&res.topK[i].score, &ref[i].first,
                                     sizeof(float)))
                << bundle.model.name() << " rank " << i;
        }
    }
}

TEST(DeepStoreApi, ScanScoresEqualScalarLoopOnDotModel)
{
    expectScanMatchesScalarLoop(dotModel(32));
}

TEST(DeepStoreApi, ScanScoresEqualScalarLoopOnMlpModel)
{
    nn::Model m("mlp-scn", 32, false);
    m.addLayer(nn::Layer::elementWise("fuse", nn::EwOp::Multiply, 32));
    m.addLayer(nn::Layer::fc("fc1", 32, 16, nn::Activation::ReLU));
    m.addLayer(nn::Layer::fc("fc2", 16, 2, nn::Activation::None));
    auto w = nn::ModelWeights::random(m, 5);
    expectScanMatchesScalarLoop(
        nn::ModelBundle{std::move(m), std::move(w)});
}

TEST(DeepStoreApi, QueryValidatesArguments)
{
    DeepStore ds(smallConfig());
    std::uint64_t db = ds.writeDB(randomDb(16, 10, 5));
    std::uint64_t model = ds.loadModel(dotModel(16));
    std::vector<float> qfv(16, 0.5f);
    EXPECT_THROW(ds.query(qfv, 3, 999, db, 0, 0), FatalError);
    EXPECT_THROW(ds.query(qfv, 3, model, 999, 0, 0), FatalError);
    EXPECT_THROW(ds.query(qfv, 3, model, db, 5, 3), FatalError);
    EXPECT_THROW(ds.query(qfv, 3, model, db, 0, 11), FatalError);
    std::vector<float> wrong(8, 0.5f);
    EXPECT_THROW(ds.query(wrong, 3, model, db, 0, 0), FatalError);
    EXPECT_THROW(ds.getResults(12345), FatalError);
}

TEST(DeepStoreApi, SubRangeQueriesScanLess)
{
    DeepStore ds(smallConfig());
    auto src = randomDb(16, 100, 7);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(16));
    std::vector<float> qfv = src->featureAt(0);
    std::uint64_t full = ds.querySync(qfv, 3, model, db, 0, 0);
    std::uint64_t half = ds.querySync(qfv, 3, model, db, 0, 50);
    EXPECT_EQ(ds.getResults(full).featuresScanned, 100u);
    EXPECT_EQ(ds.getResults(half).featuresScanned, 50u);
    EXPECT_GT(ds.getResults(full).latencySeconds,
              ds.getResults(half).latencySeconds);
    // Sub-range results only contain ids below 50.
    for (const auto &r : ds.getResults(half).topK)
        EXPECT_LT(r.featureId, 50u);
}

TEST(DeepStoreApi, LevelsDifferInLatencyNotResults)
{
    DeepStore ds(smallConfig());
    auto src = randomDb(16, 80, 11);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(16));
    std::vector<float> qfv = src->featureAt(3);
    auto ch = ds.getResults(
        ds.querySync(qfv, 4, model, db, 0, 0, Level::ChannelLevel));
    auto ssd = ds.getResults(
        ds.querySync(qfv, 4, model, db, 0, 0, Level::SsdLevel));
    EXPECT_EQ(ch.topK, ssd.topK);
    EXPECT_LT(ch.latencySeconds, ssd.latencySeconds);
}

TEST(DeepStoreApi, AppendDbGrowsAndInvalidatesQc)
{
    DeepStore ds(smallConfig());
    std::vector<std::vector<float>> first{{1.0f, 0.0f}, {0.0f, 1.0f}};
    std::uint64_t db = ds.writeDB(
        std::make_shared<VectorFeatureSource>(first, 2));
    std::vector<std::vector<float>> more{{2.0f, 2.0f}};
    ds.appendDB(db, std::make_shared<VectorFeatureSource>(more, 2));
    EXPECT_EQ(ds.databaseInfo(db).numFeatures, 3u);
    auto got = ds.readDB(db, 2, 1);
    EXPECT_EQ(got[0], more[0]);
    // Dim mismatch rejected.
    std::vector<std::vector<float>> bad{{1.0f}};
    EXPECT_THROW(
        ds.appendDB(db, std::make_shared<VectorFeatureSource>(bad, 1)),
        FatalError);
}

TEST(DeepStoreApi, ManyAppendsReadBackAsOneConcatenation)
{
    // 64 appends of small generated parts: a readDB window across
    // every part boundary, and one over the whole database, return
    // exactly the concatenation of the parts in order.
    DeepStore ds(smallConfig());
    const std::int64_t dim = 8;
    auto part = [&](std::uint64_t i) {
        return randomDb(dim, 3 + i % 5, 100 + i);
    };
    std::vector<std::vector<float>> expected;
    std::vector<std::uint64_t> boundaries;
    std::uint64_t db = 0;
    for (std::uint64_t i = 0; i <= 64; ++i) {
        auto src = part(i);
        if (i == 0) {
            db = ds.writeDB(src);
        } else {
            boundaries.push_back(expected.size());
            ds.appendDB(db, src);
        }
        for (std::uint64_t j = 0; j < src->count(); ++j)
            expected.push_back(src->featureAt(j));
    }
    ASSERT_EQ(ds.databaseInfo(db).numFeatures, expected.size());
    for (std::uint64_t b : boundaries) {
        auto got = ds.readDB(db, b - 2, 4);
        for (std::uint64_t k = 0; k < 4; ++k)
            EXPECT_EQ(got[k], expected[b - 2 + k]) << "boundary " << b;
    }
    EXPECT_EQ(ds.readDB(db, 0, expected.size()), expected);
}

TEST(DeepStoreApi, QueryCacheHitReturnsCachedTopK)
{
    DeepStore ds(smallConfig());
    const std::int64_t dim = 32;
    auto src = randomDb(dim, 150, 13);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t scn = ds.loadModel(dotModel(dim));
    std::uint64_t qcn = ds.loadModel(dotModel(dim));
    ds.setQC(qcn, /*threshold=*/0.25, /*accuracy=*/0.99,
             /*capacity=*/16);

    std::vector<float> qfv = src->featureAt(42);
    std::uint64_t first = ds.querySync(qfv, 5, scn, db, 0, 0);
    const auto &cold = ds.getResults(first);
    EXPECT_FALSE(cold.cacheHit);

    // The identical query again: must hit and return the same top-K
    // while scanning only the cached entries.
    std::uint64_t second = ds.querySync(qfv, 5, scn, db, 0, 0);
    const auto &warm = ds.getResults(second);
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.featuresScanned, 5u);
    ASSERT_EQ(warm.topK.size(), cold.topK.size());
    for (std::size_t i = 0; i < warm.topK.size(); ++i)
        EXPECT_EQ(warm.topK[i].featureId, cold.topK[i].featureId);
    EXPECT_LT(warm.latencySeconds, cold.latencySeconds);
    EXPECT_EQ(ds.queryCache()->hits(), 1u);
}

TEST(DeepStoreApi, ObjectIdsAreValidPpns)
{
    DeepStore ds(smallConfig());
    auto src = randomDb(16, 50, 17);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(16));
    auto res =
        ds.getResults(ds.querySync(src->featureAt(0), 3, model, db, 0, 0));
    const DbMetadata &md = ds.databaseInfo(db);
    for (const auto &r : res.topK) {
        EXPECT_EQ(r.objectId,
                  md.featurePpn(r.featureId,
                                ds.model().flash().pageBytes));
    }
}

TEST(DeepStoreApi, LargeWriteProgramsEveryPageThroughTheFtl)
{
    // 70,000 one-page features (dim 4096 = 16 KiB): every page is a
    // real flash program through the FTL, and the host-write time
    // the ledger attributes is exactly the simulated time the write
    // took.
    DeepStore ds(smallConfig());
    const std::uint64_t features = 70000;
    const Tick start = ds.events().now();
    ds.writeDB(randomDb(4096, features, 17));
    const double elapsed = ticksToSeconds(ds.events().now() - start);
    auto stat = [&ds](StatId id) {
        const Stat *s = ds.array().node(0).stats().find(id);
        return s ? s->value() : 0.0;
    };
    EXPECT_EQ(stat(StatId::FlashPagePrograms),
              static_cast<double>(features));
    EXPECT_EQ(stat(StatId::FtlPageWrites),
              static_cast<double>(features));
    EXPECT_GT(elapsed, 0.0);
    EXPECT_DOUBLE_EQ(
        ds.ledger().componentSeconds(TimeComponent::HostWrite),
        elapsed);
}

TEST(DeepStoreApi, LoadModelChargesUploadTime)
{
    DeepStore ds(smallConfig());
    double before = ds.simulatedSeconds();
    ds.loadModel(dotModel(64));
    // A dot model has no weights, so upload time is ~0; a TIR SCN
    // uploads ~1.6 MB.
    auto tir = workloads::makeApp(workloads::AppId::TIR);
    auto w = nn::ModelWeights::random(tir.scn, 3);
    ds.loadModel(nn::ModelBundle{tir.scn, w});
    EXPECT_GT(ds.simulatedSeconds(), before);
}

TEST(DeepStoreApi, DumpStatsReportsEngineAndSsdCounters)
{
    DeepStore ds(smallConfig());
    auto src = randomDb(16, 30, 21);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t scn = ds.loadModel(dotModel(16));
    std::uint64_t qcn = ds.loadModel(dotModel(16));
    ds.setQC(qcn, 0.2, 0.99, 4);
    ds.getResults(ds.querySync(src->featureAt(1), 2, scn, db, 0, 0));
    std::ostringstream os;
    ds.dumpStats(os);
    std::string s = os.str();
    EXPECT_NE(s.find("engine.databases = 1"), std::string::npos);
    EXPECT_NE(s.find("engine.models = 2"), std::string::npos);
    EXPECT_NE(s.find("engine.queries = 1"), std::string::npos);
    EXPECT_NE(s.find("engine.qc.misses = 1"), std::string::npos);
    EXPECT_NE(s.find("ssd.flash.pagePrograms"), std::string::npos);
}

TEST(DeepStoreApi, DumpStatsGoldenTextOnTwoNodeArray)
{
    // The full dump, byte for byte: row order, group prefixes
    // (node 0 unprefixed, `node1.` for the second node, the
    // coordinator's `array.array.` double prefix) and which counters
    // appear at all — a counter never bumped or set prints no row.
    DeepStoreConfig cfg = smallConfig();
    cfg.array.nodes = {cfg.flash, cfg.flash};
    DeepStore ds(cfg);
    auto src = randomDb(16, 64, 5);
    std::uint64_t db = ds.writeDB(src);
    ds.appendDB(db, randomDb(16, 32, 6));
    std::uint64_t scn = ds.loadModel(dotModel(16));
    ds.getResults(ds.querySync(src->featureAt(3), 4, scn, db, 0, 0));
    ds.getResults(ds.querySync(src->featureAt(9), 4, scn, db, 0, 0));
    std::ostringstream os;
    ds.dumpStats(os);
    EXPECT_EQ(os.str(),
              "engine.databases = 1\n"
              "engine.models = 1\n"
              "engine.queries = 2\n"
              "engine.inFlight = 0\n"
              "engine.completed = 4\n"
              "engine.simulatedSeconds = 0.00119468\n"
              "engine.time.hostWrite = 0.00104496\n"
              "engine.time.hostRead = 0\n"
              "engine.time.modelUpload = 0\n"
              "engine.time.qcLookup = 0\n"
              "engine.time.cacheHit = 0\n"
              "engine.time.scan = 0.000149725\n"
              "engine.time.metadata = 0\n"
              "array.nodes = 2\n"
              "array.aliveNodes = 2\n"
              "array.replication = 1\n"
              "array.array.fabric.busyTicks = 34998\n"
              "array.array.fabric.bytes = 448\n"
              "array.array.fabric.grants = 4\n"
              "array.array.fabric.waitTicks = 0\n"
              "array.array.queriesScattered = 2\n"
              "array.array.subQueriesRemote = 2\n"
              "ssd.dfv.bursts = 2\n"
              "ssd.dfv.bytesStreamed = 32768\n"
              "ssd.dfv.pagesStreamed = 2\n"
              "ssd.dfv.streamsOpened = 2\n"
              "ssd.dram.busyTicks = 9600\n"
              "ssd.dram.waitTicks = 0\n"
              "ssd.flash.pagePrograms = 1\n"
              "ssd.flash.pageReads = 2\n"
              "ssd.flash.readBytes = 32768\n"
              "ssd.flash.writeBytes = 16384\n"
              "ssd.ftl.pageWrites = 1\n"
              "ssd.host.writeCommands = 1\n"
              "ssd.noc.waitTicks = 0\n"
              "node1.ssd.dfv.bursts = 2\n"
              "node1.ssd.dfv.bytesStreamed = 32768\n"
              "node1.ssd.dfv.pagesStreamed = 2\n"
              "node1.ssd.dfv.streamsOpened = 2\n"
              "node1.ssd.dram.busyTicks = 9600\n"
              "node1.ssd.dram.waitTicks = 0\n"
              "node1.ssd.flash.pagePrograms = 1\n"
              "node1.ssd.flash.pageReads = 2\n"
              "node1.ssd.flash.readBytes = 32768\n"
              "node1.ssd.flash.writeBytes = 16384\n"
              "node1.ssd.ftl.pageWrites = 1\n"
              "node1.ssd.host.writeCommands = 1\n"
              "node1.ssd.noc.waitTicks = 0\n");
    // Never bumped on this fault-free run, so never printed.
    EXPECT_EQ(os.str().find("flash.uncorrectableReads"),
              std::string::npos);
}

TEST(DeepStoreApi, SerializedModelRoundTripsThroughApi)
{
    DeepStore ds(smallConfig());
    auto bundle = dotModel(16);
    auto blob = nn::serializeModel(bundle.model, bundle.weights);
    std::uint64_t model = ds.loadModel(blob);
    auto src = randomDb(16, 20, 19);
    std::uint64_t db = ds.writeDB(src);
    EXPECT_NO_THROW(
        ds.getResults(ds.querySync(src->featureAt(1), 2, model, db, 0, 0)));
}

} // namespace
} // namespace deepstore::core
