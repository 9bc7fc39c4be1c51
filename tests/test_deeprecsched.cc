/**
 * @file
 * Tests for DeepRecInfra and the DeepRecSched hill-climbing scheduler —
 * the paper's headline behaviours at reduced experiment scale.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "base/thread_pool.hh"
#include "bench/bench_common.hh"
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
    EXPECT_EQ(DeepRecSched::staticBaselineBatch(40), 25u);
    EXPECT_EQ(DeepRecSched::staticBaselineBatch(28), 36u);
    EXPECT_EQ(DeepRecSched::staticBaselineBatch(1), 1000u);
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

/** A tune's bits: its policy, both curves, and its best search's
 *  rate, evaluation count and accelerator utilization. */
std::vector<uint64_t>
tuneBits(const TuningResult& r)
{
    std::vector<uint64_t> bits = {
        r.policy.perRequestBatch, r.policy.gpuEnabled,
        r.policy.gpuQueryThreshold, r.batchCurve.size(),
        r.thresholdCurve.size(), std::bit_cast<uint64_t>(r.atBest.maxQps),
        r.atBest.evaluations,
        std::bit_cast<uint64_t>(r.atBest.atMax.gpuUtilization)};
    for (const auto* curve : {&r.batchCurve, &r.thresholdCurve}) {
        for (const TuningPoint& p : *curve) {
            bits.push_back(std::bit_cast<uint64_t>(p.knob));
            bits.push_back(std::bit_cast<uint64_t>(p.qps));
        }
    }
    return bits;
}

TEST(DeepRecSched, AcceleratorLeavesNoTraceOnBatchClimb)
{
    // The tune memo's premise: a policy that offloads nothing prices
    // exactly as on the machine without the accelerator, so the batch
    // climb is the same bits on both, and tuneGpu may start from the
    // CPU-only machine's climb.
    for (ModelId id : {ModelId::DlrmRmc1, ModelId::Dien}) {
        SCOPED_TRACE(modelName(id));
        InfraConfig cpu_cfg = smallInfra(id);
        cpu_cfg.numQueries = 400;
        InfraConfig gpu_cfg = cpu_cfg;
        gpu_cfg.attachGpu = true;
        const DeepRecInfra cpu(cpu_cfg);
        const DeepRecInfra gpu(gpu_cfg);
        const double sla = cpu.slaMs(SlaTier::Medium);
        const TuningResult stage1 = DeepRecSched::tuneCpu(cpu, sla);
        EXPECT_EQ(tuneBits(DeepRecSched::tuneCpu(gpu, sla)),
                  tuneBits(stage1));
        EXPECT_EQ(tuneBits(DeepRecSched::tuneGpu(gpu, sla)),
                  tuneBits(DeepRecSched::tuneGpu(gpu, sla, stage1)));
    }
}

TEST(DeepRecSched, MachineFormsEqualInfraForms)
{
    // A machine tuned under a load: the climb resets whatever policy
    // the machine arrives with, so a hand-built machine under the
    // infra's search gives the DeepRecInfra forms' bits.
    for (ModelId id : {ModelId::DlrmRmc1, ModelId::Dien}) {
        SCOPED_TRACE(modelName(id));
        InfraConfig cfg = smallInfra(id, /*gpu=*/true);
        cfg.numQueries = 400;
        const DeepRecInfra infra(cfg);
        const double sla = infra.slaMs(SlaTier::Medium);
        const QpsSearchSpec search = infra.searchSpec(sla);
        SchedulerPolicy stale;
        stale.perRequestBatch = 7;
        stale.gpuEnabled = true;
        stale.gpuQueryThreshold = 300;
        const ModelProfile& profile = infra.profile();
        const SimConfig machine{CpuCostModel(profile, cfg.platform),
                                GpuCostModel(profile, cfg.gpu), stale};

        EXPECT_EQ(tuneBits(DeepRecSched::baseline(machine, search)),
                  tuneBits(DeepRecSched::baseline(infra, sla)));
        const TuningResult stage1 = DeepRecSched::tuneCpu(machine, search);
        EXPECT_EQ(tuneBits(stage1),
                  tuneBits(DeepRecSched::tuneCpu(infra, sla)));
        EXPECT_EQ(tuneBits(DeepRecSched::tuneGpu(machine, search)),
                  tuneBits(DeepRecSched::tuneGpu(infra, sla)));
        EXPECT_EQ(tuneBits(DeepRecSched::tuneGpu(machine, search, stage1)),
                  tuneBits(DeepRecSched::tuneGpu(infra, sla, stage1)));
    }
}

TEST(DeepRecSched, GridPickOverClimbCurveIsClimbChoice)
{
    // The climb and a grid pick share one acceptance rule, so picking
    // over the points the climb measured lands on the climb's choice:
    // the premise of comparing the climb with the best grid batch.
    for (ModelId id : {ModelId::DlrmRmc1, ModelId::DlrmRmc3,
                       ModelId::Dien}) {
        SCOPED_TRACE(modelName(id));
        InfraConfig cfg = smallInfra(id, /*gpu=*/true);
        cfg.numQueries = 400;
        const DeepRecInfra infra(cfg);
        const TuningResult r =
            DeepRecSched::tuneGpu(infra, infra.slaMs(SlaTier::Medium));
        const auto pick = [](const std::vector<TuningPoint>& curve) {
            return curve[DeepRecSched::gridPick(curve, &TuningPoint::qps)]
                .knob;
        };
        EXPECT_EQ(pick(r.batchCurve),
                  static_cast<double>(r.policy.perRequestBatch));
        if (r.policy.gpuEnabled) {
            EXPECT_EQ(pick(r.thresholdCurve),
                      static_cast<double>(r.policy.gpuQueryThreshold));
        }
    }
}

TEST(DeepRecSched, GridPickKeepsTheFirstWithinSlack)
{
    // A later point must beat the current pick by more than 2%.
    const std::vector<double> flat = {100.0, 101.9, 101.0, 50.0};
    EXPECT_EQ(DeepRecSched::gridPick(flat), 0u);
    const std::vector<double> rising = {100.0, 102.1, 103.0, 104.2};
    EXPECT_EQ(DeepRecSched::gridPick(rising), 3u);
    EXPECT_TRUE(DeepRecSched::beats(102.1, 100.0));
    EXPECT_FALSE(DeepRecSched::beats(101.9, 100.0));
}

TEST(ReproductionMemo, ConcurrentAsksShareOneTune)
{
    // Eight pool tasks each ask for the same three tunes, in rotated
    // orders: a CPU-only one, the same machine at a looser SLA, and
    // the same machine with the accelerator (whose stage 1 is the
    // first). Each runs once; every task gets that one result.
    InfraConfig cpu_cfg = smallInfra(ModelId::DlrmRmc1);
    cpu_cfg.numQueries = 400;
    InfraConfig gpu_cfg = cpu_cfg;
    gpu_cfg.attachGpu = true;
    const DeepRecInfra cpu(cpu_cfg);
    const DeepRecInfra gpu(gpu_cfg);
    const double sla = cpu.slaMs(SlaTier::Medium);
    const double loose = cpu.slaMs(SlaTier::High);
    const std::vector<std::pair<const InfraConfig*, double>> asks = {
        {&cpu_cfg, sla}, {&cpu_cfg, loose}, {&gpu_cfg, sla}};

    bench::Reproduction memo;
    constexpr size_t kTasks = 8;
    const std::vector<std::vector<const TuningResult*>> got =
        ThreadPool::shared().parallelMap(kTasks, [&](size_t task) {
            std::vector<const TuningResult*> results(asks.size());
            for (size_t k = 0; k < asks.size(); k++) {
                const size_t ask = (task + k) % asks.size();
                results[ask] =
                    &memo.tune(*asks[ask].first, asks[ask].second);
            }
            return results;
        });

    EXPECT_EQ(memo.distinctTunes(/*with_gpu=*/false), 2u);
    EXPECT_EQ(memo.distinctTunes(/*with_gpu=*/true), 1u);
    const std::vector<TuningResult> direct = {
        DeepRecSched::tuneCpu(cpu, sla), DeepRecSched::tuneCpu(cpu, loose),
        DeepRecSched::tuneGpu(gpu, sla)};
    for (size_t task = 0; task < kTasks; task++) {
        for (size_t ask = 0; ask < asks.size(); ask++) {
            EXPECT_EQ(got[task][ask], got[0][ask]);
            EXPECT_EQ(tuneBits(*got[task][ask]), tuneBits(direct[ask]));
        }
    }
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
