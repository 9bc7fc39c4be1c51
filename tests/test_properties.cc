/**
 * @file
 * Property-based suites: invariants that must hold across the whole
 * (model x platform x batch) grid, exercised with parameterized
 * sweeps rather than hand-picked points.
 */

#include <gtest/gtest.h>

#include "core/deeprecsched.hh"
#include "costmodel/cpu_cost.hh"
#include "costmodel/gpu_cost.hh"
#include "models/rec_model.hh"
#include "sim/serving_sim.hh"

namespace deeprecsys {
namespace {

using ModelBatch = std::tuple<ModelId, size_t>;

/** Cost-model invariants over every model and batch size. */
class CostGrid : public ::testing::TestWithParam<ModelBatch>
{
  protected:
    static CpuCostModel
    cpuModel(ModelId id, const CpuPlatform& platform)
    {
        return CpuCostModel(ModelProfile::forModel(id), platform);
    }
};

TEST_P(CostGrid, ServiceTimePositiveAndFinite)
{
    const auto [id, batch] = GetParam();
    for (const CpuPlatform& p :
         {CpuPlatform::skylake(), CpuPlatform::broadwell()}) {
        const CpuCostModel cost = cpuModel(id, p);
        for (size_t active : {size_t{1}, p.cores / 2, p.cores}) {
            const double t = cost.requestSeconds(batch, active);
            EXPECT_GT(t, 0.0);
            EXPECT_TRUE(std::isfinite(t));
            EXPECT_LT(t, 60.0);     // nothing takes a minute
        }
    }
}

TEST_P(CostGrid, MoreActiveCoresNeverSpeedUpARequest)
{
    const auto [id, batch] = GetParam();
    for (const CpuPlatform& p :
         {CpuPlatform::skylake(), CpuPlatform::broadwell()}) {
        const CpuCostModel cost = cpuModel(id, p);
        double prev = 0.0;
        for (size_t active = 1; active <= p.cores; active += 7) {
            const double t = cost.requestSeconds(batch, active);
            EXPECT_GE(t, prev * 0.999999);
            prev = t;
        }
    }
}

TEST_P(CostGrid, DoublingBatchLessThanDoublesNothing)
{
    // Service time must grow with batch, but per-sample time must
    // not grow: batching never makes a sample slower.
    const auto [id, batch] = GetParam();
    const CpuCostModel cost = cpuModel(id, CpuPlatform::skylake());
    const double t1 = cost.requestSeconds(batch, 8);
    const double t2 = cost.requestSeconds(batch * 2, 8);
    EXPECT_GT(t2, t1);
    EXPECT_LE(t2 / 2.0, t1 * 1.0001);
}

TEST_P(CostGrid, GpuTimeFiniteAndTransferBounded)
{
    const auto [id, batch] = GetParam();
    const GpuCostModel gpu(ModelProfile::forModel(id),
                           GpuPlatform::gtx1080Ti());
    const double t = gpu.querySeconds(batch);
    EXPECT_GT(t, 0.0);
    EXPECT_TRUE(std::isfinite(t));
    const double frac = gpu.transferSeconds(batch) / t;
    EXPECT_GT(frac, 0.0);
    EXPECT_LT(frac, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CostGrid,
    ::testing::Combine(::testing::ValuesIn(allModelIds()),
                       ::testing::Values(1, 16, 128, 512)));

/** Simulator invariants over batch-size choices. */
class SimBatchGrid : public ::testing::TestWithParam<size_t>
{
};

TEST_P(SimBatchGrid, RequestAccountingExact)
{
    const size_t batch = GetParam();
    const ModelProfile profile = ModelProfile::forModel(ModelId::Ncf);
    SchedulerPolicy policy;
    policy.perRequestBatch = batch;
    SimConfig cfg{CpuCostModel(profile, CpuPlatform::skylake()),
                  std::nullopt, policy};

    QueryTrace trace;
    uint64_t expected_requests = 0;
    for (uint32_t s : {1u, 7u, 25u, 100u, 333u, 1000u}) {
        trace.push_back({trace.size(), trace.size() * 0.1, s});
        expected_requests += (s + batch - 1) / batch;
    }
    ServingSimulator sim(cfg);
    const SimResult r = sim.run(trace);
    EXPECT_EQ(r.numRequests, expected_requests);
    EXPECT_EQ(r.numQueries, trace.size());
}

TEST_P(SimBatchGrid, LatencyNeverBelowSingleRequestService)
{
    const size_t batch = GetParam();
    const ModelProfile profile =
        ModelProfile::forModel(ModelId::DlrmRmc1);
    const CpuCostModel cost(profile, CpuPlatform::skylake());
    SchedulerPolicy policy;
    policy.perRequestBatch = batch;
    SimConfig cfg{cost, std::nullopt, policy};

    QueryTrace trace;
    for (int i = 0; i < 50; i++)
        trace.push_back({static_cast<uint64_t>(i), i * 0.05,
                         static_cast<uint32_t>(1 + (i * 97) % 999)});
    ServingSimulator sim(cfg);
    const SimResult r = sim.run(trace);
    // No query can complete faster than one minimum-size request.
    EXPECT_GE(r.queryLatencySeconds.percentile(0),
              cost.requestSeconds(1, 1) * 0.999);
}

INSTANTIATE_TEST_SUITE_P(Batches, SimBatchGrid,
                         ::testing::Values(1, 25, 64, 256, 1024));

/** Scheduler baseline formula across platform core counts. */
class BaselineGrid : public ::testing::TestWithParam<size_t>
{
};

TEST_P(BaselineGrid, SplitsMaxQueryAcrossAllCores)
{
    const size_t cores = GetParam();
    const size_t batch = DeepRecSched::staticBaselineBatch(1000, cores);
    // Enough requests to cover every core...
    EXPECT_GE(batch * cores, 1000u);
    // ...but no larger than needed (ceiling division).
    if (batch > 1) {
        EXPECT_LT((batch - 1) * cores, 1000u);
    }
}

INSTANTIATE_TEST_SUITE_P(Cores, BaselineGrid,
                         ::testing::Values(1, 2, 16, 28, 40, 96));

/** Per-model profile consistency between model and cost layers. */
class ProfileGrid : public ::testing::TestWithParam<ModelId>
{
};

TEST_P(ProfileGrid, ProfileMatchesMaterializedModel)
{
    const RecModel model(modelConfig(GetParam()), 31,
                         ModelScale::tiny());
    const ModelProfile p = ModelProfile::fromModel(model);
    EXPECT_DOUBLE_EQ(p.denseFlopsPerSample,
                     static_cast<double>(model.denseFlopsPerSample()));
    EXPECT_DOUBLE_EQ(p.embBytesPerSample,
                     static_cast<double>(
                         model.embeddingBytesPerSample()));
    EXPECT_DOUBLE_EQ(
        p.seqFlopsPerSample,
        static_cast<double>(model.sequenceFlopsPerSample()));
    EXPECT_EQ(p.name, model.config().name);
}

TEST_P(ProfileGrid, ScaleDoesNotChangeAccounting)
{
    // Physical residency caps must not alter the logical profile.
    const RecModel tiny(modelConfig(GetParam()), 31,
                        ModelScale::tiny());
    ModelScale bigger;
    bigger.maxPhysicalRows = 1ull << 12;
    const RecModel big(modelConfig(GetParam()), 31, bigger);
    EXPECT_EQ(tiny.denseFlopsPerSample(), big.denseFlopsPerSample());
    EXPECT_EQ(tiny.sequenceFlopsPerSample(), big.sequenceFlopsPerSample());
    EXPECT_EQ(tiny.embeddingBytesPerSample(),
              big.embeddingBytesPerSample());
    EXPECT_EQ(tiny.logicalEmbeddingBytes(),
              big.logicalEmbeddingBytes());
}

INSTANTIATE_TEST_SUITE_P(AllModels, ProfileGrid,
                         ::testing::ValuesIn(allModelIds()));

} // namespace
} // namespace deeprecsys
