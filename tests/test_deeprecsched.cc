/**
 * @file
 * Tests for DeepRecInfra and the DeepRecSched hill-climbing scheduler —
 * the paper's headline behaviours at reduced experiment scale.
 */

#include <gtest/gtest.h>

#include "core/deeprecsched.hh"

namespace deeprecsys {
namespace {

InfraConfig
smallInfra(ModelId model, bool gpu = false)
{
    InfraConfig cfg;
    cfg.model = model;
    cfg.attachGpu = gpu;
    cfg.numQueries = 900;
    return cfg;
}

TEST(DeepRecSched, StaticBaselineBatchFormula)
{
    // Section V: max query 1000 split over 40 Skylake cores -> 25.
    EXPECT_EQ(DeepRecSched::staticBaselineBatch(1000, 40), 25u);
    EXPECT_EQ(DeepRecSched::staticBaselineBatch(1000, 28), 36u);
    EXPECT_EQ(DeepRecSched::staticBaselineBatch(1, 40), 1u);
    EXPECT_EQ(DeepRecSched::staticBaselineBatch(1000, 1), 1000u);
}

TEST(DeepRecSched, BaselineUsesStaticBatch)
{
    DeepRecInfra infra(smallInfra(ModelId::DlrmRmc1));
    const TuningResult r = DeepRecSched::baseline(infra, 100.0);
    EXPECT_EQ(r.policy.perRequestBatch, 25u);
    EXPECT_FALSE(r.policy.gpuEnabled);
    EXPECT_GT(r.qps(), 0.0);
}

TEST(DeepRecSched, TuneCpuBeatsBaselineForRmc1)
{
    DeepRecInfra infra(smallInfra(ModelId::DlrmRmc1));
    const double sla = infra.slaMs(SlaTier::Medium);
    const TuningResult base = DeepRecSched::baseline(infra, sla);
    const TuningResult tuned = DeepRecSched::tuneCpu(infra, sla);
    EXPECT_GT(tuned.qps(), 1.5 * base.qps());
    EXPECT_GT(tuned.policy.perRequestBatch, base.policy.perRequestBatch);
}

TEST(DeepRecSched, BatchCurveRecordsClimb)
{
    DeepRecInfra infra(smallInfra(ModelId::DlrmRmc3));
    const TuningResult r =
        DeepRecSched::tuneCpu(infra, infra.slaMs(SlaTier::Medium));
    EXPECT_GE(r.batchCurve.size(), 4u);
    // The curve starts at unit batch.
    EXPECT_DOUBLE_EQ(r.batchCurve.front().knob, 1.0);
    // The tuned batch appears on the curve with the best QPS.
    double best = 0.0;
    for (const TuningPoint& p : r.batchCurve)
        best = std::max(best, p.qps);
    EXPECT_GE(r.qps(), 0.9 * best);
}

TEST(DeepRecSched, EmbeddingModelsPreferLargerBatches)
{
    // Figure 12b: embedding-dominated models peak at larger batches
    // than attention (DIEN) models.
    DeepRecInfra rmc1(smallInfra(ModelId::DlrmRmc1));
    DeepRecInfra dien(smallInfra(ModelId::Dien));
    const TuningResult r1 =
        DeepRecSched::tuneCpu(rmc1, rmc1.slaMs(SlaTier::Medium));
    const TuningResult r2 =
        DeepRecSched::tuneCpu(dien, dien.slaMs(SlaTier::Medium));
    EXPECT_GT(r1.policy.perRequestBatch, r2.policy.perRequestBatch);
}

TEST(DeepRecSched, RelaxedSlaRaisesQps)
{
    DeepRecInfra infra(smallInfra(ModelId::WideAndDeep));
    const double lo =
        DeepRecSched::tuneCpu(infra, infra.slaMs(SlaTier::Low)).qps();
    const double hi =
        DeepRecSched::tuneCpu(infra, infra.slaMs(SlaTier::High)).qps();
    EXPECT_GT(hi, lo);
}

TEST(DeepRecSched, TuneGpuAtLeastMatchesCpu)
{
    DeepRecInfra infra(smallInfra(ModelId::DlrmRmc1, /*gpu=*/true));
    const double sla = infra.slaMs(SlaTier::Medium);
    const TuningResult cpu = DeepRecSched::tuneCpu(infra, sla);
    const TuningResult gpu = DeepRecSched::tuneGpu(infra, sla);
    EXPECT_GE(gpu.qps(), cpu.qps());
    EXPECT_GE(gpu.thresholdCurve.size(), 1u);
}

TEST(DeepRecSched, TuneGpuOffloadsTail)
{
    DeepRecInfra infra(smallInfra(ModelId::DlrmRmc1, /*gpu=*/true));
    const TuningResult r =
        DeepRecSched::tuneGpu(infra, infra.slaMs(SlaTier::Medium));
    ASSERT_TRUE(r.policy.gpuEnabled);
    EXPECT_GE(r.policy.gpuQueryThreshold, 1u);
    EXPECT_GT(r.atBest.atMax.gpuWorkFraction, 0.0);
    EXPECT_LT(r.atBest.atMax.gpuWorkFraction, 1.0);
}

TEST(DeepRecInfra, SlaTiersScaleFromTableTwo)
{
    DeepRecInfra infra(smallInfra(ModelId::Dien));
    EXPECT_DOUBLE_EQ(infra.slaMs(SlaTier::Low), 17.5);
    EXPECT_DOUBLE_EQ(infra.slaMs(SlaTier::Medium), 35.0);
    EXPECT_DOUBLE_EQ(infra.slaMs(SlaTier::High), 52.5);
}

TEST(DeepRecInfra, QpsPerWattUsesPlatformTdp)
{
    DeepRecInfra infra(smallInfra(ModelId::Ncf));
    SchedulerPolicy policy;
    policy.perRequestBatch = 128;
    QpsSearchResult at_max = infra.maxQps(policy, 5.0);
    EXPECT_NEAR(infra.qpsPerWatt(at_max), at_max.maxQps / 125.0, 1e-9);
}

/** Tier monotonicity holds for every model (paper Figure 11 axes). */
class TierSweep : public ::testing::TestWithParam<ModelId>
{
};

TEST_P(TierSweep, QpsMonotoneInSlaTier)
{
    DeepRecInfra infra(smallInfra(GetParam()));
    SchedulerPolicy policy;
    policy.perRequestBatch = 64;
    const double lo =
        infra.maxQps(policy, infra.slaMs(SlaTier::Low)).maxQps;
    const double mid =
        infra.maxQps(policy, infra.slaMs(SlaTier::Medium)).maxQps;
    const double hi =
        infra.maxQps(policy, infra.slaMs(SlaTier::High)).maxQps;
    EXPECT_LE(lo, mid * 1.02);
    EXPECT_LE(mid, hi * 1.02);
    EXPECT_GT(hi, 0.0);
}

TEST_P(TierSweep, TunedConfigurationBeatsOrMatchesBaseline)
{
    // The headline claim at reduced scale: DeepRecSched-CPU never
    // loses to the static baseline.
    DeepRecInfra infra(smallInfra(GetParam()));
    const double sla = infra.slaMs(SlaTier::Medium);
    const double base = DeepRecSched::baseline(infra, sla).qps();
    const double tuned = DeepRecSched::tuneCpu(infra, sla).qps();
    EXPECT_GE(tuned, 0.95 * base);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, TierSweep, ::testing::ValuesIn(allModelIds()),
    [](const ::testing::TestParamInfo<ModelId>& info) {
        std::string name = modelName(info.param);
        for (char& c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace deeprecsys
