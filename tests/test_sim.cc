/**
 * @file
 * Tests for the discrete-event serving simulator: query splitting,
 * queueing behaviour, GPU offload routing, and measurement.
 */

#include <gtest/gtest.h>

#include "sim/serving_sim.hh"

namespace deeprecsys {
namespace {

SimConfig
makeConfig(ModelId model = ModelId::DlrmRmc1, size_t batch = 256,
           bool gpu = false, uint32_t threshold = 1)
{
    const ModelProfile profile = ModelProfile::forModel(model);
    SchedulerPolicy policy;
    policy.perRequestBatch = batch;
    policy.gpuEnabled = gpu;
    policy.gpuQueryThreshold = threshold;
    SimConfig cfg{CpuCostModel(profile, CpuPlatform::skylake()),
                  std::nullopt, policy};
    if (gpu)
        cfg.bindings[0].gpu.emplace(profile, GpuPlatform::gtx1080Ti());
    return cfg;
}

QueryTrace
makeTrace(std::initializer_list<std::pair<double, uint32_t>> queries)
{
    QueryTrace trace;
    uint64_t id = 0;
    for (const auto& [t, size] : queries)
        trace.push_back({id++, t, size});
    return trace;
}

TEST(ServingSim, EmptyTraceYieldsEmptyResult)
{
    ServingSimulator sim(makeConfig());
    const SimResult r = sim.run({});
    EXPECT_EQ(r.numQueries, 0u);
    EXPECT_EQ(r.numRequests, 0u);
}

TEST(ServingSim, SingleQueryLatencyEqualsServiceTime)
{
    SimConfig cfg = makeConfig(ModelId::DlrmRmc1, 256);
    ServingSimulator sim(cfg);
    const SimResult r = sim.run(makeTrace({{0.0, 100}}));
    ASSERT_EQ(r.numQueries, 1u);
    EXPECT_EQ(r.numRequests, 1u);
    const double expected = cfg.bindings[0].cpu.requestSeconds(100, 1);
    EXPECT_NEAR(r.queryLatencySeconds.mean(), expected, 1e-9);
}

TEST(ServingSim, QueriesSplitIntoCeilRequests)
{
    ServingSimulator sim(makeConfig(ModelId::DlrmRmc1, 64));
    const SimResult r =
        sim.run(makeTrace({{0.0, 100}, {10.0, 64}, {20.0, 65}}));
    // 100 -> 2 requests, 64 -> 1, 65 -> 2.
    EXPECT_EQ(r.numRequests, 5u);
}

TEST(ServingSim, SplitQueryUsesParallelCores)
{
    // An idle machine should serve a split query in roughly the time
    // of its largest piece, not the sum of pieces.
    SimConfig cfg = makeConfig(ModelId::DlrmRmc1, 128);
    ServingSimulator sim(cfg);
    const SimResult r = sim.run(makeTrace({{0.0, 512}}));
    const double piece = cfg.bindings[0].cpu.requestSeconds(128, 4);
    EXPECT_LT(r.queryLatencySeconds.mean(), 1.5 * piece);
}

TEST(ServingSim, LatencyGrowsWithLoad)
{
    SimConfig cfg = makeConfig(ModelId::DlrmRmc1, 256);
    // Back-to-back arrivals queue behind each other.
    QueryTrace dense;
    QueryTrace sparse;
    for (int i = 0; i < 200; i++) {
        dense.push_back({static_cast<uint64_t>(i), i * 1e-4, 200});
        sparse.push_back({static_cast<uint64_t>(i), i * 1.0, 200});
    }
    ServingSimulator sim_a(cfg);
    ServingSimulator sim_b(cfg);
    const SimResult busy = sim_a.run(dense);
    const SimResult idle = sim_b.run(sparse);
    EXPECT_GT(busy.p95Ms(), idle.p95Ms());
}

TEST(ServingSim, DeterministicAcrossRuns)
{
    QueryTrace trace;
    for (int i = 0; i < 500; i++)
        trace.push_back({static_cast<uint64_t>(i), i * 0.001,
                         static_cast<uint32_t>(1 + (i * 37) % 600)});
    ServingSimulator a(makeConfig());
    ServingSimulator b(makeConfig());
    const SimResult ra = a.run(trace);
    const SimResult rb = b.run(trace);
    EXPECT_DOUBLE_EQ(ra.p95Ms(), rb.p95Ms());
    EXPECT_EQ(ra.numRequests, rb.numRequests);
}

TEST(ServingSim, SlowdownScalesLatency)
{
    SimConfig fast = makeConfig();
    SimConfig slow = makeConfig();
    slow.slowdown = 2.0;
    const QueryTrace trace = makeTrace({{0.0, 100}});
    ServingSimulator a(fast);
    ServingSimulator b(slow);
    EXPECT_NEAR(b.run(trace).queryLatencySeconds.mean(),
                2.0 * a.run(trace).queryLatencySeconds.mean(), 1e-9);
}

TEST(ServingSim, WarmupExcludesLeadingQueries)
{
    QueryTrace trace;
    for (int i = 0; i < 100; i++)
        trace.push_back({static_cast<uint64_t>(i), i * 0.01, 50});
    ServingSimulator sim(makeConfig());
    const SimResult r = sim.run(trace);
    EXPECT_EQ(warmupCount(trace.size()), 5u);
    EXPECT_EQ(r.numQueries, 95u);
}

TEST(ServingSim, GpuThresholdRoutesLargeQueries)
{
    SimConfig cfg = makeConfig(ModelId::DlrmRmc1, 256, true, 500);
    ServingSimulator sim(cfg);
    const SimResult r =
        sim.run(makeTrace({{0.0, 100}, {1.0, 499}, {2.0, 500},
                           {3.0, 1000}}));
    // Two queries below the threshold stay on CPU (1 request each at
    // batch 256 for 100; two for 499).
    EXPECT_EQ(r.numRequests, 3u);
    // 1500 of 2099 samples offloaded.
    EXPECT_NEAR(r.gpuWorkFraction, 1500.0 / 2099.0, 1e-9);
}

TEST(ServingSim, ThresholdOneOffloadsEverything)
{
    SimConfig cfg = makeConfig(ModelId::DlrmRmc1, 256, true, 1);
    ServingSimulator sim(cfg);
    const SimResult r = sim.run(makeTrace({{0.0, 10}, {1.0, 800}}));
    EXPECT_EQ(r.numRequests, 0u);
    EXPECT_DOUBLE_EQ(r.gpuWorkFraction, 1.0);
    EXPECT_GT(r.gpuBusySeconds, 0.0);
}

TEST(ServingSim, GpuQueriesQueueFifo)
{
    SimConfig cfg = makeConfig(ModelId::DlrmRmc1, 256, true, 1);
    ServingSimulator sim(cfg);
    // Two simultaneous queries: the second waits for the first.
    const SimResult r = sim.run(makeTrace({{0.0, 500}, {0.0, 500}}));
    const double service = cfg.bindings[0].gpu->querySeconds(500);
    EXPECT_NEAR(r.queryLatencySeconds.percentile(100), 2.0 * service, 1e-9);
    EXPECT_NEAR(r.queryLatencySeconds.percentile(0), service, 1e-9);
}

TEST(ServingSim, GpuLatencyForSingleQuery)
{
    SimConfig cfg = makeConfig(ModelId::DlrmRmc1, 256, true, 1);
    ServingSimulator sim(cfg);
    const SimResult r = sim.run(makeTrace({{0.0, 700}}));
    EXPECT_NEAR(r.queryLatencySeconds.mean(),
                cfg.bindings[0].gpu->querySeconds(700), 1e-9);
}

TEST(ServingSim, UtilizationBounds)
{
    QueryTrace trace;
    for (int i = 0; i < 300; i++)
        trace.push_back({static_cast<uint64_t>(i), i * 0.002,
                         static_cast<uint32_t>(1 + (i * 53) % 900)});
    SimConfig cfg = makeConfig(ModelId::DlrmRmc1, 128, true, 400);
    ServingSimulator sim(cfg);
    const SimResult r = sim.run(trace);
    EXPECT_GE(r.cpuUtilization, 0.0);
    EXPECT_LE(r.cpuUtilization, 1.0);
    EXPECT_GE(r.gpuUtilization, 0.0);
    EXPECT_LE(r.gpuUtilization, 1.0);
    EXPECT_GT(r.gpuWorkFraction, 0.0);
    EXPECT_LT(r.gpuWorkFraction, 1.0);
}

TEST(ServingSim, OfferedQpsMeasuredFromTrace)
{
    QueryTrace trace;
    for (int i = 0; i < 1001; i++)
        trace.push_back({static_cast<uint64_t>(i), i * 0.01, 10});
    ServingSimulator sim(makeConfig());
    const SimResult r = sim.run(trace);
    EXPECT_NEAR(r.offeredQps, 100.0, 0.5);
}

TEST(ServingSim, OverloadProducesHugeTail)
{
    // Offered load far beyond capacity: latency must blow up, which
    // is how the QPS search detects infeasibility.
    QueryTrace trace;
    for (int i = 0; i < 2000; i++)
        trace.push_back({static_cast<uint64_t>(i), i * 1e-5, 500});
    ServingSimulator sim(makeConfig(ModelId::DlrmRmc1, 256));
    const SimResult r = sim.run(trace);
    EXPECT_GT(r.p95Ms(), 1000.0);
}

TEST(ServingSim, BatchOnePureRequestParallelism)
{
    SimConfig cfg = makeConfig(ModelId::Ncf, 1);
    ServingSimulator sim(cfg);
    const SimResult r = sim.run(makeTrace({{0.0, 40}}));
    EXPECT_EQ(r.numRequests, 40u);
}

} // namespace
} // namespace deeprecsys
