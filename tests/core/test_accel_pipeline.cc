/**
 * @file
 * Tests for the event-driven accelerator pipeline, including the
 * cross-validation of the closed-form query model against it.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/accel_pipeline.h"
#include "core/query_model.h"
#include "workloads/apps.h"

namespace deepstore::core {
namespace {

struct Rig
{
    sim::EventQueue events;
    StatGroup stats{"rig"};
    ssd::FlashParams params;
    std::unique_ptr<ssd::FlashController> channel;

    explicit Rig(ssd::FlashParams p = {}) : params(p)
    {
        channel = std::make_unique<ssd::FlashController>(
            events, params, 0, stats);
    }
};

TEST(AccelPipeline, RejectsBadConfig)
{
    Rig rig;
    PipelineRunConfig cfg;
    EXPECT_THROW(runAcceleratorPipeline(rig.events, *rig.channel,
                                        rig.params, cfg),
                 FatalError);
    cfg.features = 10;
    cfg.featureBytes = 2048;
    cfg.computeCyclesPerFeature = 100;
    cfg.queueDepthPages = 0;
    EXPECT_THROW(runAcceleratorPipeline(rig.events, *rig.channel,
                                        rig.params, cfg),
                 FatalError);
}

TEST(AccelPipeline, ProcessesEveryFeature)
{
    Rig rig;
    PipelineRunConfig cfg;
    cfg.features = 500;
    cfg.featureBytes = 2048; // 8 per page
    cfg.computeCyclesPerFeature = 2000;
    auto stats = runAcceleratorPipeline(rig.events, *rig.channel,
                                        rig.params, cfg);
    EXPECT_EQ(stats.featuresProcessed, 500u);
    EXPECT_EQ(stats.pageReads, (500u + 7) / 8);
    EXPECT_GT(stats.totalSeconds, 0.0);
}

TEST(AccelPipeline, ComputeBoundRunApproachesComputeTime)
{
    Rig rig;
    PipelineRunConfig cfg;
    cfg.features = 2000;
    cfg.featureBytes = 2048;
    cfg.computeCyclesPerFeature = 20000; // 25 us/feature at 800 MHz
    auto stats = runAcceleratorPipeline(rig.events, *rig.channel,
                                        rig.params, cfg);
    double compute_only = 2000 * 25e-6;
    EXPECT_NEAR(stats.totalSeconds, compute_only,
                0.03 * compute_only);
    // Flash hides almost entirely behind compute.
    EXPECT_LT(stats.starvedSeconds, 0.02 * stats.totalSeconds);
}

TEST(AccelPipeline, FlashBoundRunMatchesChannelRate)
{
    Rig rig;
    PipelineRunConfig cfg;
    cfg.features = 2000;
    cfg.featureBytes = 16384; // one full page each
    cfg.computeCyclesPerFeature = 100; // trivially cheap compute
    auto stats = runAcceleratorPipeline(rig.events, *rig.channel,
                                        rig.params, cfg);
    double flash_rate =
        ssd::channelFeatureRate(rig.params, cfg.featureBytes);
    double flash_only = 2000 / flash_rate;
    EXPECT_NEAR(stats.totalSeconds, flash_only, 0.10 * flash_only);
    EXPECT_GT(stats.starvedSeconds, 0.5 * stats.totalSeconds);
}

TEST(AccelPipeline, DeeperQueueNeverHurts)
{
    for (std::uint32_t depth : {1u, 4u, 16u, 64u}) {
        static double prev = 1e9;
        if (depth == 1)
            prev = 1e9;
        Rig rig;
        PipelineRunConfig cfg;
        cfg.features = 1000;
        cfg.featureBytes = 16384;
        cfg.computeCyclesPerFeature = 15000;
        cfg.queueDepthPages = depth;
        auto stats = runAcceleratorPipeline(rig.events, *rig.channel,
                                            rig.params, cfg);
        EXPECT_LE(stats.totalSeconds, prev * 1.001) << depth;
        prev = stats.totalSeconds;
    }
}

TEST(AccelPipeline, RetryInjectionSlowsTheScan)
{
    ssd::FlashParams faulty;
    faulty.readRetryProbability = 0.05;
    faulty.readRetryPenalty = 4.0;
    Rig clean, injected(faulty);
    PipelineRunConfig cfg;
    cfg.features = 1500;
    cfg.featureBytes = 16384;
    cfg.computeCyclesPerFeature = 500;
    auto base = runAcceleratorPipeline(clean.events, *clean.channel,
                                       clean.params, cfg);
    auto slow = runAcceleratorPipeline(
        injected.events, *injected.channel, injected.params, cfg);
    EXPECT_GT(slow.totalSeconds, base.totalSeconds);
    EXPECT_GT(injected.stats.find(StatId::FlashReadRetries)->value(), 0.0);
    // A deep queue largely hides sparse retries.
    EXPECT_LT(slow.totalSeconds, 1.30 * base.totalSeconds);
}

/**
 * Cross-validation: the closed-form channel-level model and the
 * event-driven pipeline agree on per-feature time within 15% for all
 * five applications (compute leg fed from the same systolic model,
 * weights assumed resident to isolate the flash/compute pipeline).
 */
class PipelineXVal : public ::testing::TestWithParam<workloads::AppId>
{
};

TEST_P(PipelineXVal, AnalyticModelMatchesEventModel)
{
    auto app = workloads::makeApp(GetParam());
    ssd::FlashParams params;
    DeepStoreModel model(params);
    auto perf = model.evaluate(Level::ChannelLevel, app);

    Rig rig;
    PipelineRunConfig cfg;
    cfg.features = 1000;
    cfg.featureBytes = app.featureBytes();
    cfg.computeCyclesPerFeature = perf.modelRun.totalCycles();
    cfg.frequencyHz = perf.placement.array.frequencyHz;
    cfg.queueDepthPages = perf.placement.dfvQueueDepthPages;
    auto stats = runAcceleratorPipeline(rig.events, *rig.channel,
                                        rig.params, cfg);

    // Compare against the analytic per-accelerator time without the
    // weight-stream leg (the pipeline models flash + compute only).
    double analytic =
        std::max(perf.computeSeconds, perf.flashSeconds) +
        params.readLatency *
            (static_cast<double>(cfg.featureBytes) /
             static_cast<double>(params.pageBytes)) /
            cfg.queueDepthPages;
    EXPECT_NEAR(stats.perFeatureSeconds() / analytic, 1.0, 0.15)
        << app.name << ": event " << stats.perFeatureSeconds() * 1e6
        << " us vs analytic " << analytic * 1e6 << " us";
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, PipelineXVal,
    ::testing::Values(workloads::AppId::ReId, workloads::AppId::MIR,
                      workloads::AppId::ESTP, workloads::AppId::TIR,
                      workloads::AppId::TextQA),
    [](const auto &info) {
        return std::string(workloads::toString(info.param));
    });

} // namespace
} // namespace deepstore::core
