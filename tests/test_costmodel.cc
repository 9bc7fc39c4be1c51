/**
 * @file
 * Tests for the analytical cost models: platform descriptors, per-model
 * profiles, CPU service-time properties, the GPU accelerator model
 * (Figure 4 behaviours), and the power model.
 */

#include <gtest/gtest.h>

#include "base/thread_pool.hh"
#include "costmodel/cpu_cost.hh"
#include "costmodel/gpu_cost.hh"
#include "costmodel/power.hh"
#include "models/rec_model.hh"

namespace deeprecsys {
namespace {

TEST(CpuPlatform, PaperConfigurations)
{
    const CpuPlatform bdw = CpuPlatform::broadwell();
    EXPECT_EQ(bdw.cores, 28u);
    EXPECT_DOUBLE_EQ(bdw.freqGhz, 2.4);
    EXPECT_EQ(bdw.simdFloats, 8u);     // AVX-2
    EXPECT_TRUE(bdw.inclusiveLlc);
    EXPECT_DOUBLE_EQ(bdw.tdpWatts, 120.0);

    const CpuPlatform skl = CpuPlatform::skylake();
    EXPECT_EQ(skl.cores, 40u);
    EXPECT_DOUBLE_EQ(skl.freqGhz, 2.0);
    EXPECT_EQ(skl.simdFloats, 16u);    // AVX-512
    EXPECT_FALSE(skl.inclusiveLlc);
    EXPECT_DOUBLE_EQ(skl.tdpWatts, 125.0);
}

TEST(CpuPlatform, PeakFlopsScalesWithSimd)
{
    const CpuPlatform bdw = CpuPlatform::broadwell();
    const CpuPlatform skl = CpuPlatform::skylake();
    // SKL: 2.0 GHz * 16 lanes; BDW: 2.4 GHz * 8 lanes.
    EXPECT_GT(skl.peakCoreFlops(), bdw.peakCoreFlops());
}

/** The profile a fresh tiny-scale build of @p id yields. */
ModelProfile
freshProfile(ModelId id)
{
    return ModelProfile::fromModel(
        RecModel(modelConfig(id), /*seed=*/7, ModelScale::tiny()));
}

/** Every field of @p actual equals @p expected exactly. */
void
expectSameProfile(const ModelProfile& actual, const ModelProfile& expected)
{
    SCOPED_TRACE(expected.name);
    EXPECT_EQ(actual.id, expected.id);
    EXPECT_EQ(actual.name, expected.name);
    EXPECT_EQ(actual.denseFlopsPerSample, expected.denseFlopsPerSample);
    EXPECT_EQ(actual.attnFlopsPerSample, expected.attnFlopsPerSample);
    EXPECT_EQ(actual.recFlopsPerSample, expected.recFlopsPerSample);
    EXPECT_EQ(actual.seqFlopsPerSample, expected.seqFlopsPerSample);
    EXPECT_EQ(actual.embBytesPerSample, expected.embBytesPerSample);
    EXPECT_EQ(actual.denseParamBytes, expected.denseParamBytes);
    EXPECT_EQ(actual.inputBytesPerSample, expected.inputBytesPerSample);
    EXPECT_EQ(actual.logicalEmbeddingBytes, expected.logicalEmbeddingBytes);
}

TEST(ModelProfile, MemoMatchesFreshBuild)
{
    for (ModelId id : allModelIds()) {
        const ModelProfile fresh = freshProfile(id);
        expectSameProfile(ModelProfile::forModel(id), fresh);
        // The second call reads the memo and still returns the same.
        expectSameProfile(ModelProfile::forModel(id), fresh);
    }
}

TEST(ModelProfileParallel, EightWorkersMatchSerial)
{
    // The parallel calls come first so the memo is filled under
    // contention (each test runs in its own process under ctest).
    const std::vector<ModelId>& ids = allModelIds();
    ThreadPool pool(8);
    const std::vector<ModelProfile> parallel =
        pool.parallelMap(8 * ids.size(), [&](size_t i) {
            return ModelProfile::forModel(ids[i % ids.size()]);
        });
    std::vector<ModelProfile> serial;
    for (ModelId id : ids)
        serial.push_back(freshProfile(id));
    for (size_t i = 0; i < parallel.size(); i++)
        expectSameProfile(parallel[i], serial[i % ids.size()]);
}

TEST(ModelProfile, EmbeddingBytesMatchConfig)
{
    const ModelProfile p = ModelProfile::forModel(ModelId::DlrmRmc1);
    // 8 tables x 80 lookups x 32 floats = 80 KiB per sample.
    EXPECT_DOUBLE_EQ(p.embBytesPerSample, 8.0 * 80 * 32 * 4);
}

TEST(ModelProfile, SequenceFlopsOnlyForDinDien)
{
    EXPECT_EQ(ModelProfile::forModel(ModelId::Ncf).seqFlopsPerSample, 0);
    EXPECT_GT(ModelProfile::forModel(ModelId::Din).attnFlopsPerSample, 0);
    EXPECT_GT(ModelProfile::forModel(ModelId::Dien).recFlopsPerSample, 0);
}

TEST(ModelProfile, MlpModelsAreComputeHeavier)
{
    const ModelProfile rmc1 = ModelProfile::forModel(ModelId::DlrmRmc1);
    const ModelProfile rmc3 = ModelProfile::forModel(ModelId::DlrmRmc3);
    // RMC3 (MLP dominated) has far more FLOPs but far less embedding
    // traffic than RMC1 (embedding dominated).
    EXPECT_GT(rmc3.denseFlopsPerSample, 5.0 * rmc1.denseFlopsPerSample);
    EXPECT_LT(rmc3.embBytesPerSample, rmc1.embBytesPerSample);
}

TEST(ModelProfile, LogicalEmbeddingBytesAreLarge)
{
    // DLRM-class models store GB-scale embedding tables.
    const ModelProfile rmc2 = ModelProfile::forModel(ModelId::DlrmRmc2);
    EXPECT_GT(rmc2.logicalEmbeddingBytes, 4e9);
}

class CpuCostFixture : public ::testing::Test
{
  protected:
    CpuCostFixture()
        : profile(ModelProfile::forModel(ModelId::DlrmRmc1)),
          skl(CpuPlatform::skylake()), bdw(CpuPlatform::broadwell()),
          cost_skl(profile, skl), cost_bdw(profile, bdw)
    {
    }

    ModelProfile profile;
    CpuPlatform skl;
    CpuPlatform bdw;
    CpuCostModel cost_skl;
    CpuCostModel cost_bdw;
};

TEST_F(CpuCostFixture, RequestTimeIncreasesWithBatch)
{
    double prev = 0.0;
    for (size_t b : {1, 4, 16, 64, 256, 1024}) {
        const double t = cost_skl.requestSeconds(b, 1);
        EXPECT_GT(t, prev) << "batch " << b;
        prev = t;
    }
}

TEST_F(CpuCostFixture, PerSampleTimeDecreasesWithBatch)
{
    // The batching benefit: amortized per-item cost falls.
    const double t16 = cost_skl.requestSeconds(16, 1) / 16.0;
    const double t1024 = cost_skl.requestSeconds(1024, 1) / 1024.0;
    EXPECT_LT(t1024, t16);
}

TEST_F(CpuCostFixture, ContentionAtLeastOneAndMonotone)
{
    double prev = 0.0;
    for (size_t a = 1; a <= skl.cores; a++) {
        const double c = cost_skl.contentionFactor(a, 64);
        EXPECT_GE(c, 1.0);
        EXPECT_GE(c, prev);
        prev = c;
    }
}

TEST_F(CpuCostFixture, InclusiveCacheContendsHarder)
{
    // The Broadwell-vs-Skylake effect behind Figure 12c.
    const double c_bdw = cost_bdw.contentionFactor(bdw.cores, 16);
    const double c_skl = cost_skl.contentionFactor(skl.cores, 16);
    EXPECT_GT(c_bdw, c_skl);
    EXPECT_GT(c_bdw, 1.5);
}

TEST_F(CpuCostFixture, SmallBatchesThrashInclusiveCaches)
{
    const double small = cost_bdw.contentionFactor(bdw.cores, 8);
    const double large = cost_bdw.contentionFactor(bdw.cores, 1024);
    EXPECT_GT(small, large * 1.2);
    // The exclusive hierarchy barely cares.
    const double skl_small = cost_skl.contentionFactor(skl.cores, 8);
    const double skl_large = cost_skl.contentionFactor(skl.cores, 1024);
    EXPECT_LT(skl_small / skl_large, small / large);
}

TEST_F(CpuCostFixture, EmbeddingTimeSharedAcrossCores)
{
    const double alone = cost_skl.embeddingSeconds(256, 1);
    const double crowded = cost_skl.embeddingSeconds(256, skl.cores);
    EXPECT_GT(crowded, alone);
}

TEST_F(CpuCostFixture, EmbeddingDominatesForRmc1)
{
    // Table II: DLRM-RMC1 is embedding dominated at realistic batches.
    const double emb = cost_skl.embeddingSeconds(256, 20);
    const double fc = cost_skl.fcSeconds(256, 20);
    EXPECT_GT(emb, fc);
}

TEST(CpuCost, FcDominatesForRmc3)
{
    const ModelProfile p = ModelProfile::forModel(ModelId::DlrmRmc3);
    const CpuCostModel cost(p, CpuPlatform::skylake());
    const double emb = cost.embeddingSeconds(256, 20);
    const double fc = cost.fcSeconds(256, 20);
    EXPECT_GT(fc, emb);
}

TEST(CpuCost, RecurrentDominatesForDien)
{
    const ModelProfile p = ModelProfile::forModel(ModelId::Dien);
    const CpuCostModel cost(p, CpuPlatform::skylake());
    const double rec = cost.recurrentSeconds(64);
    EXPECT_GT(rec, cost.fcSeconds(64, 20));
    EXPECT_GT(rec, cost.embeddingSeconds(64, 20));
}

TEST(CpuCost, RecurrentEfficiencySaturatesEarly)
{
    const ModelProfile p = ModelProfile::forModel(ModelId::Dien);
    const CpuCostModel cost(p, CpuPlatform::skylake());
    // Per-sample recurrent time barely improves past small batches.
    const double t64 = cost.recurrentSeconds(64) / 64.0;
    const double t1024 = cost.recurrentSeconds(1024) / 1024.0;
    EXPECT_LT(t64 / t1024, 1.10);
}

TEST(CpuCost, WiderSimdNeedsLargerBatch)
{
    // Relative FC efficiency at batch 32 vs 512 is worse on AVX-512
    // than AVX-2 (Skylake needs bigger batches, Section IV-A).
    const ModelProfile p = ModelProfile::forModel(ModelId::WideAndDeep);
    const CpuCostModel skl(p, CpuPlatform::skylake());
    const CpuCostModel bdw(p, CpuPlatform::broadwell());
    const double skl_ratio =
        (skl.fcSeconds(32, 1) / 32.0) / (skl.fcSeconds(512, 1) / 512.0);
    const double bdw_ratio =
        (bdw.fcSeconds(32, 1) / 32.0) / (bdw.fcSeconds(512, 1) / 512.0);
    EXPECT_GT(skl_ratio, bdw_ratio);
}

class GpuCostFixture : public ::testing::Test
{
  protected:
    GpuCostFixture()
        : profile(ModelProfile::forModel(ModelId::DlrmRmc1)),
          cpu(profile, CpuPlatform::skylake()),
          gpu(profile, GpuPlatform::gtx1080Ti())
    {
    }

    ModelProfile profile;
    CpuCostModel cpu;
    GpuCostModel gpu;
};

TEST_F(GpuCostFixture, QueryTimeIncreasesWithSize)
{
    double prev = 0.0;
    for (size_t s : {1, 16, 128, 512, 1000}) {
        const double t = gpu.querySeconds(s);
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST_F(GpuCostFixture, DataLoadingDominatesEndToEnd)
{
    // Figure 4: transfers consume 60-80% of GPU inference time.
    for (size_t s : {64, 128, 256, 512}) {
        const double frac = gpu.transferSeconds(s) / gpu.querySeconds(s);
        EXPECT_GT(frac, 0.45) << "size " << s;
        EXPECT_LT(frac, 0.90) << "size " << s;
    }
}

TEST_F(GpuCostFixture, SpeedupGrowsWithBatch)
{
    EXPECT_GT(gpu.speedupOverCpu(cpu, 1024),
              gpu.speedupOverCpu(cpu, 16));
}

TEST_F(GpuCostFixture, LargeBatchSpeedupInPaperRange)
{
    // Figure 6: large queries see several-fold GPU speedup.
    const double sp = gpu.speedupOverCpu(cpu, 1024);
    EXPECT_GT(sp, 2.0);
    EXPECT_LT(sp, 60.0);
}

/** Every model crosses over to GPU-favourable at some batch. */
class GpuCrossover : public ::testing::TestWithParam<ModelId>
{
};

TEST_P(GpuCrossover, ExistsWithin1024)
{
    const ModelProfile p = ModelProfile::forModel(GetParam());
    const CpuCostModel cpu(p, CpuPlatform::skylake());
    const GpuCostModel gpu(p, GpuPlatform::gtx1080Ti());
    const size_t cross = gpu.crossoverBatch(cpu);
    EXPECT_GE(cross, 1u);
    EXPECT_LE(cross, 1024u);
    // Past the crossover the GPU stays ahead at 1024.
    EXPECT_GT(gpu.speedupOverCpu(cpu, 1024), 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllModels, GpuCrossover,
                         ::testing::ValuesIn(allModelIds()));

TEST(GpuCost, CrossoverVariesAcrossModels)
{
    // Figure 4: the CPU/GPU inflection point is model dependent.
    std::set<size_t> crossovers;
    for (ModelId id : allModelIds()) {
        const ModelProfile p = ModelProfile::forModel(id);
        const CpuCostModel cpu(p, CpuPlatform::skylake());
        const GpuCostModel gpu(p, GpuPlatform::gtx1080Ti());
        crossovers.insert(gpu.crossoverBatch(cpu));
    }
    EXPECT_GE(crossovers.size(), 3u);
}

TEST(PowerModel, CpuOnlyIsTdp)
{
    const PowerModel p(CpuPlatform::skylake());
    EXPECT_DOUBLE_EQ(p.watts(), 125.0);
    EXPECT_DOUBLE_EQ(p.qpsPerWatt(1250.0), 10.0);
}

TEST(PowerModel, GpuAddsIdleAndActivePower)
{
    const PowerModel p(CpuPlatform::skylake(), GpuPlatform::gtx1080Ti());
    EXPECT_DOUBLE_EQ(p.watts(0.0), 125.0 + 55.0);
    EXPECT_DOUBLE_EQ(p.watts(1.0), 125.0 + 250.0);
    EXPECT_GT(p.watts(0.5), p.watts(0.0));
}

TEST(PowerModel, UtilizationInterpolatesLinearly)
{
    const PowerModel p(CpuPlatform::skylake(), GpuPlatform::gtx1080Ti());
    const double lo = p.watts(0.0);
    const double hi = p.watts(1.0);
    EXPECT_DOUBLE_EQ(p.watts(0.5), 0.5 * (lo + hi));
}

} // namespace
} // namespace deeprecsys
