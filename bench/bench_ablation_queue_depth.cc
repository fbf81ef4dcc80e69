/**
 * @file
 * Ablation: FLASH_DFV prefetch-queue depth (§4.4, Fig. 5), with and
 * without read-retry failure injection.
 *
 * The depth sweep evaluates the analytic channel-level model with the
 * placement's queue depth varied: each refill burst of `depth` pages
 * exposes one flash array-read latency. A flash-bound SCN pays that
 * exposure every few pages at shallow depths; a compute-bound SCN
 * hides it behind compute at any depth. The live engine runs at the
 * Table-3 depth only, so the read-retry columns come from a
 * one-channel live scan of the same SCN, clean and with 5% of page
 * reads retried at 4x the read latency.
 */

#include <iostream>
#include <memory>

#include "bench_common.h"
#include "common/table.h"
#include "core/deepstore.h"
#include "core/query_model.h"
#include "workloads/apps.h"

using namespace deepstore;

namespace {

constexpr std::uint64_t kLiveFeatures = 1000;

/** Per-feature latency of one channel-level scan over kLiveFeatures
 *  features on a one-channel engine. */
double
livePerFeature(const nn::Model &scn, double retry_probability)
{
    core::DeepStoreConfig cfg;
    cfg.flash.channels = 1;
    cfg.flash.readRetryProbability = retry_probability;
    cfg.flash.readRetryPenalty = 4.0;
    core::DeepStore ds(cfg);
    workloads::FeatureGenerator gen(scn.featureDim(), 16, 7);
    std::uint64_t db = ds.writeDB(
        std::make_shared<core::GeneratedFeatureSource>(gen,
                                                       kLiveFeatures));
    std::uint64_t model = ds.loadModel(
        nn::ModelBundle{scn, nn::ModelWeights::random(scn, 1)});
    std::uint64_t qid = ds.querySync(gen.featureAt(1), 5, model, db, 0,
                                     0, core::Level::ChannelLevel);
    return ds.getResults(qid).latencySeconds /
           static_cast<double>(kLiveFeatures);
}

/** A dot-product SCN over one-page (16 KiB) features: flash-bound at
 *  the channel level. */
nn::Model
flashBoundScn()
{
    const std::int64_t dim = 4096;
    nn::Model m("Dot-4096", dim, false);
    m.addLayer(nn::Layer::elementWise("dot", nn::EwOp::DotProduct,
                                      dim));
    return m;
}

} // namespace

int
main()
{
    bench::banner("Ablation: FLASH_DFV queue depth",
                  "Analytic channel-level per-feature time vs queue "
                  "depth; live one-channel scan at the\nTable 3 depth, "
                  "clean and with 5% read-retry injection at 4x "
                  "latency");

    bench::JsonReport report("ablation_queue_depth");
    const ssd::FlashParams flash;
    const core::DeepStoreModel model(flash);
    const core::Placement table3 =
        core::makePlacement(core::Level::ChannelLevel, flash);

    std::vector<nn::Model> scns{
        workloads::makeApp(workloads::AppId::ESTP).scn,
        workloads::makeApp(workloads::AppId::MIR).scn, flashBoundScn()};
    for (const nn::Model &scn : scns) {
        bench::section(scn.name());
        auto analytic = [&](std::uint32_t depth) {
            core::Placement p = table3;
            p.dfvQueueDepthPages = depth;
            return model.evaluatePlacement(p, scn, scn.featureBytes())
                .perAccelSeconds;
        };
        const double at_table3 = analytic(table3.dfvQueueDepthPages);
        TextTable t({"DepthPages", "Analytic(us/feat)", "vsTable3"});
        for (std::uint32_t depth : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
            const double s = analytic(depth);
            t.addRow({std::to_string(depth), TextTable::num(s * 1e6, 3),
                      TextTable::num(s / at_table3, 3) + "x"});
        }
        t.print(std::cout);
        report.table(t, scn.name());

        const double clean = livePerFeature(scn, 0.0);
        const double faulty = livePerFeature(scn, 0.05);
        TextTable live({"DepthPages", "Clean(us/feat)",
                        "Retries(us/feat)", "RetryOverhead"});
        live.addRow({std::to_string(table3.dfvQueueDepthPages),
                     TextTable::num(clean * 1e6, 3),
                     TextTable::num(faulty * 1e6, 3),
                     TextTable::num((faulty / clean - 1) * 100, 1) +
                         "%"});
        std::printf("\nLive engine, one channel, %llu features:\n",
                    static_cast<unsigned long long>(kLiveFeatures));
        live.print(std::cout);
        report.table(live, scn.name() + " live");
        std::printf("\ndepth 1 -> %u improves analytic per-feature "
                    "time %.2fx.\n",
                    table3.dfvQueueDepthPages, analytic(1) / at_table3);
    }
    report.write();
    return 0;
}
