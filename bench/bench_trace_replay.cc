/**
 * @file
 * Trace replay under load (§5's trace-driven evaluation, extended to
 * response-time distributions): a Poisson query stream served by
 * DeepStore's channel level, with and without the Query Cache.
 *
 * The queries run on the **live engine** (replayTrace): arrivals are
 * event-queue events, queries overlap on the accelerator complex, and
 * response times come from real completion ticks.
 */

#include <iostream>
#include <memory>

#include "bench_common.h"
#include "common/table.h"
#include "core/trace_replay.h"

using namespace deepstore;

namespace {

nn::ModelBundle
dotModel(std::int64_t dim)
{
    nn::Model m("dot-scn", dim, false);
    m.addLayer(
        nn::Layer::elementWise("dot", nn::EwOp::DotProduct, dim));
    auto w = nn::ModelWeights::random(m, 1);
    return nn::ModelBundle{std::move(m), std::move(w)};
}

void
addStatsRow(TextTable &t, const char *name,
            const core::ReplayStats &stats)
{
    t.addRow({name, TextTable::num(stats.missRate * 100, 0),
              TextTable::num(stats.utilization * 100, 0),
              TextTable::num(stats.p50Seconds * 1e3, 1),
              TextTable::num(stats.p95Seconds * 1e3, 1),
              TextTable::num(stats.p99Seconds * 1e3, 1)});
}

/** Replay on a live engine — real flash reads, slot-
 *  scheduled compute, overlapping queries. */
void
runOnEngine(bench::JsonReport &report)
{
    constexpr std::int64_t kDim = 64;
    constexpr std::uint64_t kFeatures = 8'000;

    workloads::QueryUniverseConfig ucfg;
    ucfg.numQueries = 4'000;
    ucfg.numTopics = 200;
    workloads::QueryUniverse universe(ucfg);

    for (double rate : {10.0, 50.0}) {
        bench::section("arrival rate " + TextTable::num(rate, 1) +
                       " queries/s (live engine)");
        auto trace = workloads::QueryTrace::generate(
            universe, 200, rate, workloads::Popularity::Zipf, 0.7,
            77);
        TextTable t({"System", "Miss%", "Util%", "p50(ms)",
                     "p95(ms)", "p99(ms)"});
        for (bool cached : {false, true}) {
            core::DeepStore ds{core::DeepStoreConfig{}};
            workloads::FeatureGenerator gen(kDim, 32, 11);
            std::uint64_t db = ds.writeDB(
                std::make_shared<core::GeneratedFeatureSource>(
                    gen, kFeatures));
            std::uint64_t scn = ds.loadModel(dotModel(kDim));
            if (cached) {
                std::uint64_t qcn = ds.loadModel(dotModel(kDim));
                ds.setQC(qcn, 0.25, 0.97, 256);
            }
            core::EngineReplayConfig cfg;
            cfg.k = 5;
            cfg.modelId = scn;
            cfg.dbId = db;
            cfg.featureDim = kDim;
            cfg.universe = &universe;
            auto stats = core::replayTrace(ds, trace, cfg);
            addStatsRow(t,
                        cached ? "DeepStore + QCache"
                               : "DeepStore (channel)",
                        stats);
        }
        t.print(std::cout);
        report.table(t, TextTable::num(rate, 1) + " q/s engine");
    }

    std::printf(
        "\nLive-engine replay: every response time is a completion "
        "tick of the\nevent-native datapath (flash reads, slot-"
        "scheduled compute, shared DRAM).\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1) {
        std::fprintf(stderr, "unknown argument '%s'\nusage: %s\n",
                     argv[1], argv[0]);
        return 2;
    }

    bench::banner("Trace replay (§5)",
                  "Poisson query stream on the live engine: "
                  "throughput and tail latency");

    bench::JsonReport report("trace_replay");
    report.meta("backend", "engine");
    runOnEngine(report);
    report.write();
    return 0;
}
