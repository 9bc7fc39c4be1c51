/**
 * @file
 * Cross-module integration tests: the measured behaviour of the real
 * kernels must agree qualitatively with the analytical cost model and
 * the paper's characterization (Table II / Figure 3).
 */

#include <gtest/gtest.h>

#include "core/deeprecsched.hh"
#include "serving/engine.hh"

namespace deeprecsys {
namespace {

TEST(Integration, Rmc1MeasuredBreakdownIsEmbeddingHeavy)
{
    // Use a larger physical table so gathers hit DRAM, as in
    // production; RMC1 should then be embedding dominated (Table II).
    ModelScale scale;
    scale.maxPhysicalRows = 1ull << 17;
    const RecModel model(modelConfig(ModelId::DlrmRmc1), 3, scale);
    Rng rng(5);
    const OperatorStats stats = model.measureBreakdown(64, 3, rng);
    EXPECT_GT(stats.fraction(OpClass::Embedding), 0.35);
}

TEST(Integration, NcfMeasuredBreakdownIsFcHeavy)
{
    const RecModel model(modelConfig(ModelId::Ncf), 3, ModelScale{});
    Rng rng(5);
    const OperatorStats stats = model.measureBreakdown(64, 3, rng);
    EXPECT_EQ(stats.dominant(), OpClass::Fc);
    EXPECT_GT(stats.fraction(OpClass::Fc), 0.5);
}

TEST(Integration, DienMeasuredBreakdownIsRecurrentHeavy)
{
    const RecModel model(modelConfig(ModelId::Dien), 3,
                         ModelScale::tiny());
    Rng rng(5);
    const OperatorStats stats = model.measureBreakdown(16, 2, rng);
    EXPECT_EQ(stats.dominant(), OpClass::Recurrent);
}

TEST(Integration, DinSpendsTimeInAttention)
{
    const RecModel model(modelConfig(ModelId::Din), 3,
                         ModelScale::tiny());
    Rng rng(5);
    const OperatorStats stats = model.measureBreakdown(16, 2, rng);
    EXPECT_GT(stats.fraction(OpClass::Attention), 0.15);
}

TEST(Integration, EngineAndSimAgreeOnRequestCounts)
{
    // Real engine and simulator must split queries identically.
    const RecModel model(modelConfig(ModelId::Ncf), 7,
                         ModelScale::tiny());
    EngineConfig ecfg;
    ecfg.numWorkers = 2;
    ecfg.perRequestBatch = 25;
    ServingEngine engine(model, ecfg);

    QueryTrace trace;
    uint64_t id = 0;
    for (uint32_t s : {100u, 25u, 26u, 999u, 1u})
        trace.push_back({id++, 0.0, s});
    const EngineResult er = engine.serveAll(trace);

    const ModelProfile profile = ModelProfile::forModel(ModelId::Ncf);
    SchedulerPolicy policy;
    policy.perRequestBatch = 25;
    SimConfig scfg{CpuCostModel(profile, CpuPlatform::skylake()),
                   std::nullopt, policy};
    ServingSimulator sim(scfg);
    const SimResult sr = sim.run(trace);

    EXPECT_EQ(er.numRequests, sr.numRequests);
}

TEST(Integration, CostModelRanksModelsLikeRealKernels)
{
    // Per-sample real execution time and modeled service time should
    // order RMC2 (heaviest) above NCF (lightest).
    Rng rng(9);
    const RecModel ncf(modelConfig(ModelId::Ncf), 1, ModelScale::tiny());
    const RecModel rmc2(modelConfig(ModelId::DlrmRmc2), 1,
                        ModelScale::tiny());

    const auto measure = [&](const RecModel& m) {
        Rng local(3);
        const auto t0 = std::chrono::steady_clock::now();
        const RecBatch batch = m.makeBatch(32, local);
        m.forward(batch);
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    const double real_ncf = measure(ncf);
    const double real_rmc2 = measure(rmc2);

    const CpuCostModel cost_ncf(ModelProfile::forModel(ModelId::Ncf),
                                CpuPlatform::skylake());
    const CpuCostModel cost_rmc2(
        ModelProfile::forModel(ModelId::DlrmRmc2),
        CpuPlatform::skylake());
    EXPECT_GT(real_rmc2, real_ncf);
    EXPECT_GT(cost_rmc2.requestSeconds(32, 1),
              cost_ncf.requestSeconds(32, 1));
}

TEST(Integration, HeadlineSpeedupAtReducedScale)
{
    // Aggregate sanity: tuning beats the static baseline by >1.3x on
    // the two DLRM models that anchor the paper's Figure 11.
    for (ModelId id : {ModelId::DlrmRmc1, ModelId::DlrmRmc2}) {
        InfraConfig cfg;
        cfg.model = id;
        cfg.numQueries = 800;
        DeepRecInfra infra(cfg);
        const double sla = infra.slaMs(SlaTier::Medium);
        const double base = DeepRecSched::baseline(infra, sla).qps();
        const double tuned = DeepRecSched::tuneCpu(infra, sla).qps();
        EXPECT_GT(tuned, 1.3 * base) << modelName(id);
    }
}

TEST(Integration, GpuOffloadUnlocksLowerLatency)
{
    // Figure 14a: with an accelerator, tail-latency targets below the
    // CPU's feasible floor become achievable.
    InfraConfig cpu_cfg;
    cpu_cfg.model = ModelId::DlrmRmc1;
    cpu_cfg.numQueries = 800;
    DeepRecInfra cpu_infra(cpu_cfg);
    InfraConfig gpu_cfg = cpu_cfg;
    gpu_cfg.attachGpu = true;
    DeepRecInfra gpu_infra(gpu_cfg);

    SchedulerPolicy cpu_policy;
    cpu_policy.perRequestBatch = 256;
    SchedulerPolicy gpu_policy = cpu_policy;
    gpu_policy.gpuEnabled = true;
    gpu_policy.gpuQueryThreshold = 1;

    // A target below any CPU feasibility but above GPU service time.
    const double strict_ms = 4.0;
    EXPECT_DOUBLE_EQ(cpu_infra.maxQps(cpu_policy, strict_ms).maxQps, 0.0);
    EXPECT_GT(gpu_infra.maxQps(gpu_policy, strict_ms).maxQps, 0.0);
}

} // namespace
} // namespace deeprecsys
