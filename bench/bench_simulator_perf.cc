/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: these
 * guard the wall-clock cost of the building blocks the paper-figure
 * harnesses lean on (event kernel, systolic evaluation, flash
 * streaming, top-K, cache lookups, functional SCN scoring).
 *
 * Besides the usual console table, the harness writes
 * BENCH_simulator_perf.json with every run's items/second and a
 * top-level eventsPerSecond scalar (the event kernel's sustained
 * rate — the baseline number the parallel-DES work is measured
 * against).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

#include "core/query_cache.h"
#include "core/query_model.h"
#include "core/topk.h"
#include "nn/executor.h"
#include "nn/score_kernels.h"
#include "sim/event_queue.h"
#include "ssd/ssd.h"
#include "workloads/apps.h"
#include "workloads/query_universe.h"

using namespace deepstore;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const auto n = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        std::uint64_t sum = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            q.schedule((i * 7919) % 100000, [&sum] { ++sum; });
        q.run();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                            state.iterations());
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void
BM_LevelPerfEvaluation(benchmark::State &state)
{
    core::DeepStoreModel ds{ssd::FlashParams{}};
    auto app = workloads::makeApp(workloads::AppId::ReId);
    for (auto _ : state) {
        auto p = ds.evaluate(core::Level::ChannelLevel, app);
        benchmark::DoNotOptimize(p.aggregateSeconds);
    }
}
BENCHMARK(BM_LevelPerfEvaluation);

void
BM_FlashStreamEventSim(benchmark::State &state)
{
    const auto pages = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue events;
        StatGroup stats("bench");
        ssd::FlashParams p;
        p.channels = 1;
        ssd::FlashController ctrl(events, p, 0, stats);
        ssd::Geometry g(p);
        for (std::uint64_t i = 0; i < pages; ++i) {
            ssd::FlashCommand cmd;
            cmd.op = ssd::FlashOp::Read;
            cmd.addr = g.decode(i);
            cmd.transferBytes = p.pageBytes;
            ctrl.issue(std::move(cmd));
        }
        events.run();
        benchmark::DoNotOptimize(events.now());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(pages) *
                            state.iterations());
}
BENCHMARK(BM_FlashStreamEventSim)->Arg(10000);

void
BM_TopKInsert(benchmark::State &state)
{
    const auto k = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    std::vector<float> scores(100000);
    for (auto &s : scores)
        s = static_cast<float>(rng.uniform());
    for (auto _ : state) {
        core::TopK topk(k);
        for (std::size_t i = 0; i < scores.size(); ++i)
            topk.insert({i, i, scores[i]});
        benchmark::DoNotOptimize(topk.kthScore());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(scores.size()) *
        state.iterations());
}
BENCHMARK(BM_TopKInsert)->Arg(10)->Arg(100);

void
BM_QueryCacheLookup(benchmark::State &state)
{
    workloads::QueryUniverseConfig cfg;
    cfg.numQueries = 100000;
    workloads::QueryUniverse u(cfg);
    core::QueryCacheConfig qcfg;
    qcfg.capacity = static_cast<std::size_t>(state.range(0));
    qcfg.threshold = 0.10;
    qcfg.qcnAccuracy = 0.97;
    core::QueryCache qc(qcfg,
                        [&u](std::uint64_t a, std::uint64_t b) {
                            return u.qcnScore(a, b);
                        });
    for (std::uint64_t q = 0; q < qcfg.capacity; ++q)
        qc.insert(q, {});
    std::uint64_t next = 0;
    for (auto _ : state) {
        auto out = qc.lookup(next++ % 100000);
        benchmark::DoNotOptimize(out.bestScore);
    }
}
BENCHMARK(BM_QueryCacheLookup)->Arg(100)->Arg(1000);

/** The scoring SCN of perfbench's scan_mlp workload: Multiply fuse
 *  plus two 256-wide FC layers over 256-d features. */
struct MlpScoring
{
    static constexpr std::int64_t kDim = 256;
    static constexpr std::size_t kFeatures = 1536;

    nn::Model model{"bench-fuse-mlp", kDim, false};
    nn::ModelWeights weights;
    std::vector<float> qfv;
    std::vector<float> dfvs; ///< kFeatures x kDim, row-major

    MlpScoring()
    {
        model.addLayer(
            nn::Layer::elementWise("fuse", nn::EwOp::Multiply, kDim));
        model.addLayer(
            nn::Layer::fc("fc1", kDim, 256, nn::Activation::ReLU));
        model.addLayer(
            nn::Layer::fc("fc2", 256, 256, nn::Activation::None));
        weights = nn::ModelWeights::random(model, 1);
        Rng rng(11);
        qfv.resize(static_cast<std::size_t>(kDim));
        for (auto &x : qfv)
            x = static_cast<float>(rng.gaussian());
        dfvs.resize(kFeatures * static_cast<std::size_t>(kDim));
        for (auto &x : dfvs)
            x = static_cast<float>(rng.gaussian());
    }
};

/** A whole scan's features scored by `score` (one call per
 *  iteration); items are features scored. */
template <class Score>
void
scoreScan(benchmark::State &state, const MlpScoring &s, Score score)
{
    std::vector<float> scores(MlpScoring::kFeatures);
    for (auto _ : state) {
        score(s.dfvs.data(), MlpScoring::kFeatures, scores.data());
        benchmark::DoNotOptimize(scores.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(MlpScoring::kFeatures) *
        state.iterations());
}

/** Executor::scoreBatch, i.e. the kernel it picked for this CPU. */
void
BM_ExecutorScoreBatch(benchmark::State &state)
{
    MlpScoring s;
    nn::Executor ex(s.model, s.weights);
    scoreScan(state, s, [&](const float *dfvs, std::size_t n,
                            float *scores) {
        ex.scoreBatch(s.qfv, dfvs, n, scores);
    });
}
BENCHMARK(BM_ExecutorScoreBatch);

/** One ISA instantiation of the kernel, called directly. */
void
BM_ExecutorScoreBatch(benchmark::State &state, nn::kernels::ScoreFn kernel,
                      bool supported)
{
    if (!supported) {
        state.SkipWithError("CPU lacks this ISA");
        return;
    }
    MlpScoring s;
    scoreScan(state, s, [&](const float *dfvs, std::size_t n,
                            float *scores) {
        kernel(s.model, s.weights, s.qfv.data(), dfvs, n, scores);
    });
}
BENCHMARK_CAPTURE(BM_ExecutorScoreBatch, baseline,
                  nn::kernels::scoreBaseline, true);
BENCHMARK_CAPTURE(BM_ExecutorScoreBatch, avx2, nn::kernels::scoreAvx2,
                  nn::kernels::hasAvx2());

/** The one-lane score() path (the QCN probe's), one feature per
 *  iteration. */
void
BM_ExecutorScore(benchmark::State &state)
{
    MlpScoring s;
    nn::Executor ex(s.model, s.weights);
    const std::vector<float> dfv(
        s.dfvs.begin(), s.dfvs.begin() + MlpScoring::kDim);
    for (auto _ : state)
        benchmark::DoNotOptimize(ex.score(s.qfv, dfv));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecutorScore);

/**
 * Console output plus a machine-readable summary: every run's
 * items/second lands in BENCH_simulator_perf.json, and the event
 * kernel's sustained events/second is promoted to a top-level
 * scalar so CI can assert on it without parsing run names.
 */
class EventsPerSecondReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.run_type != Run::RT_Iteration ||
                run.error_occurred)
                continue;
            auto it = run.counters.find("items_per_second");
            if (it == run.counters.end())
                continue;
            rates_.emplace_back(run.benchmark_name(),
                                static_cast<double>(it->second));
        }
        ConsoleReporter::ReportRuns(runs);
    }

    void
    writeJson() const
    {
        bench::JsonReport report("simulator_perf");
        double events_per_second = 0;
        for (const auto &[name, rate] : rates_)
            if (name.rfind("BM_EventQueueScheduleRun", 0) == 0)
                events_per_second =
                    std::max(events_per_second, rate);
        report.meta("eventsPerSecond", events_per_second);
        for (const auto &[name, rate] : rates_)
            report.beginRow()
                .col("name", name)
                .col("itemsPerSecond", rate);
        report.write();
    }

  private:
    std::vector<std::pair<std::string, double>> rates_;
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    EventsPerSecondReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    reporter.writeJson();
    return 0;
}
