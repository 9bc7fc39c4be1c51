/**
 * @file
 * Differential equivalence suite for the unified event engine.
 *
 * Both ServingSimulator and ClusterSimulator are thin drivers over
 * sim/machine_engine.hh; a single-machine simulation is *defined* to
 * be a 1-machine shardless cluster with a zero-cost network. This
 * suite holds the two drivers to that definition bit-for-bit: for
 * randomized (model, platform, scheduler, trace) combinations, every
 * per-query latency, request count, and utilization integral must be
 * exactly — not approximately — equal. Any future engine or driver
 * change that lets the two paths diverge fails here before it can
 * silently skew the single-machine figures against the fleet results.
 */

#include <gtest/gtest.h>

#include "base/random.hh"
#include "bench/bench_common.hh"
#include "cluster/autoscaler.hh"
#include "cluster/cluster_sim.hh"
#include "cluster/model_mix.hh"
#include "loadgen/query_stream.hh"
#include "sim/serving_sim.hh"

namespace deeprecsys {
namespace {

SimConfig
machineConfig(ModelId model, size_t batch, bool gpu, uint32_t threshold,
              double slowdown = 1.0, bool broadwell = false)
{
    const ModelProfile profile = ModelProfile::forModel(model);
    SchedulerPolicy policy;
    policy.perRequestBatch = batch;
    policy.gpuEnabled = gpu;
    policy.gpuQueryThreshold = threshold;
    SimConfig cfg{CpuCostModel(profile, broadwell ? CpuPlatform::broadwell()
                                                  : CpuPlatform::skylake()),
                  std::nullopt, policy};
    cfg.slowdown = slowdown;
    if (gpu)
        cfg.bindings[0].gpu.emplace(profile, GpuPlatform::gtx1080Ti());
    return cfg;
}

/** The 1-machine shardless zero-network cluster a SimConfig implies. */
ClusterConfig
oneMachineCluster(const SimConfig& machine)
{
    ClusterConfig cluster;
    cluster.machines.push_back(machine);
    return cluster;
}

QueryTrace
poissonTrace(size_t count, double qps, uint64_t seed = 7)
{
    LoadSpec load;
    load.qps = qps;
    load.arrivalSeed = seed;
    load.sizeSeed = seed + 1;
    QueryStream stream(load);
    return stream.generate(count);
}

/**
 * The whole contract in one place: run both drivers on the same
 * trace and assert every comparable statistic is exactly equal.
 */
void
expectIdenticalRuns(const SimConfig& machine, const QueryTrace& trace,
                    RoutingKind routing = RoutingKind::RoundRobin)
{
    ServingSimulator serving(machine);
    const SimResult s = serving.run(trace);

    const ClusterSimulator clusterSim(oneMachineCluster(machine));
    const ClusterResult c = clusterSim.run(trace, RoutingSpec{routing});

    // Per-query latencies, in completion order, bit-for-bit.
    ASSERT_EQ(s.queryLatencySeconds.count(),
              c.fleetLatencySeconds.count());
    EXPECT_EQ(s.queryLatencySeconds.raw(), c.fleetLatencySeconds.raw());

    // Batch mechanics: the same queries split into the same requests.
    ASSERT_EQ(c.perMachine.size(), 1u);
    EXPECT_EQ(s.numRequests, c.perMachine[0].requestsDispatched);
    EXPECT_EQ(s.numQueries, c.numQueries);

    // Utilization integrals and the measurement window.
    EXPECT_EQ(s.cpuBusyCoreSeconds, c.perMachine[0].busyCoreSeconds);
    EXPECT_EQ(s.gpuBusySeconds, c.perMachine[0].gpuBusySeconds);
    EXPECT_EQ(s.cpuUtilization, c.perMachine[0].cpuUtilization);
    EXPECT_EQ(s.gpuUtilization, c.perMachine[0].gpuUtilization);
    EXPECT_EQ(s.spanSeconds, c.spanSeconds);
    EXPECT_EQ(s.offeredQps, c.offeredQps);
    EXPECT_EQ(s.achievedQps, c.achievedQps);
}

TEST(EngineDiff, SingleQueryMatchesExactly)
{
    expectIdenticalRuns(machineConfig(ModelId::DlrmRmc1, 256, false, 1),
                        {{0, 0.0, 100}});
}

TEST(EngineDiff, EveryModelMatchesOnPoissonLoad)
{
    for (ModelId model : allModelIds()) {
        SCOPED_TRACE(modelName(model));
        expectIdenticalRuns(machineConfig(model, 64, false, 1),
                            poissonTrace(800, 400.0));
    }
}

TEST(EngineDiff, RandomizedConfigTraceSchedulerCombinations)
{
    // The core differential sweep: random model/platform/scheduler/
    // load combinations, each held to exact equality.
    Rng rng(0xd1ffULL);
    const std::vector<ModelId>& models = allModelIds();
    for (int round = 0; round < 24; round++) {
        const ModelId model =
            models[static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(models.size()) - 1))];
        const size_t batch = static_cast<size_t>(
            rng.uniformInt(1, 512));
        const bool gpu = rng.uniform() < 0.4;
        const uint32_t threshold = static_cast<uint32_t>(
            rng.uniformInt(1, 600));
        const double slowdown = rng.uniform(0.7, 1.6);
        const bool broadwell = rng.uniform() < 0.5;
        const double qps = rng.uniform(50.0, 2500.0);
        const size_t count = static_cast<size_t>(
            rng.uniformInt(50, 1200));

        SCOPED_TRACE("round " + std::to_string(round) + " model " +
                     modelName(model) + " batch " +
                     std::to_string(batch) + " gpu " +
                     std::to_string(gpu) + " qps " + std::to_string(qps));
        expectIdenticalRuns(
            machineConfig(model, batch, gpu, threshold, slowdown,
                          broadwell),
            poissonTrace(count, qps, rng()));
    }
}

TEST(EngineDiff, GpuOffloadPathMatches)
{
    expectIdenticalRuns(machineConfig(ModelId::DlrmRmc2, 128, true, 300),
                        poissonTrace(1000, 900.0));
}

TEST(EngineDiff, OffloadEverythingMatches)
{
    expectIdenticalRuns(machineConfig(ModelId::WideAndDeep, 64, true, 1),
                        poissonTrace(600, 700.0));
}

TEST(EngineDiff, SimultaneousArrivalTiesMatch)
{
    // Equal-time completions exercise the event tie-break: the old
    // single-machine loop broke ties on heap internals while the
    // cluster used insertion order — the unified EventQueue gives
    // both drivers the same deterministic order.
    QueryTrace trace;
    for (uint64_t i = 0; i < 64; i++)
        trace.push_back({i, 0.0, 128});
    for (uint64_t i = 0; i < 64; i++)
        trace.push_back({64 + i, 0.005, 128});
    expectIdenticalRuns(machineConfig(ModelId::DlrmRmc1, 32, false, 1),
                        trace);
}

TEST(EngineDiff, OverloadBurstMatches)
{
    QueryTrace trace;
    for (uint64_t i = 0; i < 1500; i++)
        trace.push_back({i, static_cast<double>(i) * 1e-5, 400});
    expectIdenticalRuns(machineConfig(ModelId::DlrmRmc3, 256, false, 1),
                        trace);
}

TEST(EngineDiff, WarmupFractionsMatch)
{
    // Both drivers exclude warmupCount(size) leading queries; these
    // lengths sit on either side of the count's truncation steps.
    for (size_t count : {19u, 20u, 39u, 40u, 400u}) {
        SCOPED_TRACE(count);
        expectIdenticalRuns(machineConfig(ModelId::Ncf, 16, false, 1),
                            poissonTrace(count, 300.0));
    }
}

TEST(EngineDiff, EveryRoutingPolicyDegeneratesToSameMachine)
{
    // On a 1-machine cluster every policy must route to machine 0, so
    // the equivalence holds regardless of the configured policy.
    const SimConfig machine = machineConfig(ModelId::Din, 96, false, 1);
    const QueryTrace trace = poissonTrace(500, 350.0);
    for (RoutingKind kind : allRoutingKinds()) {
        SCOPED_TRACE(routingKindName(kind));
        expectIdenticalRuns(machine, trace, kind);
    }
}

TEST(EngineDiff, SlowdownMatches)
{
    expectIdenticalRuns(
        machineConfig(ModelId::DlrmRmc1, 256, false, 1, 1.8),
        poissonTrace(600, 250.0));
}

TEST(EngineDiff, EmptyTraceMatches)
{
    const SimConfig machine = machineConfig(ModelId::DlrmRmc1, 64,
                                            false, 1);
    ServingSimulator serving(machine);
    const SimResult s = serving.run({});
    const ClusterSimulator clusterSim(oneMachineCluster(machine));
    const ClusterResult c =
        clusterSim.run({}, RoutingSpec{RoutingKind::RoundRobin});
    EXPECT_EQ(s.numQueries, 0u);
    EXPECT_EQ(c.numQueries, 0u);
    EXPECT_EQ(c.numDispatched, 0u);
}

TEST(EngineDiff, NonZeroNetworkAddsExactlyOneRoundTrip)
{
    // The only modeled difference between the two drivers is the
    // router hop: with an idle machine and one query, the cluster
    // latency exceeds the single-machine latency by exactly the
    // forward + return hop.
    const SimConfig machine = machineConfig(ModelId::DlrmRmc1, 256,
                                            false, 1);
    const QueryTrace trace = {{0, 0.0, 100}};
    ServingSimulator serving(machine);
    const SimResult s = serving.run(trace);

    ClusterConfig cluster = oneMachineCluster(machine);
    cluster.network.hopSeconds = 250e-6;
    cluster.network.gigabytesPerSecond = 10.0;
    const ClusterResult c = ClusterSimulator(cluster).run(
        trace, RoutingSpec{RoutingKind::RoundRobin});

    const double forward = cluster.network.oneWaySeconds(
        100.0 * cluster.network.requestBytesPerSample);
    const double back = cluster.network.oneWaySeconds(
        100.0 * cluster.network.responseBytesPerSample);
    EXPECT_NEAR(c.fleetLatencySeconds.mean(),
                s.queryLatencySeconds.mean() + forward + back, 1e-12);
}

// ------------------------------------------- disabled overload layer

/** Every comparable cluster statistic, bit-for-bit. */
void
expectIdenticalClusterRuns(const ClusterResult& a, const ClusterResult& b)
{
    ASSERT_EQ(a.fleetLatencySeconds.count(), b.fleetLatencySeconds.count());
    EXPECT_EQ(a.fleetLatencySeconds.raw(), b.fleetLatencySeconds.raw());
    EXPECT_EQ(a.machineOfQuery, b.machineOfQuery);
    EXPECT_EQ(a.numDispatched, b.numDispatched);
    EXPECT_EQ(a.numCompleted, b.numCompleted);
    EXPECT_EQ(a.numParts, b.numParts);
    EXPECT_EQ(a.spanSeconds, b.spanSeconds);
    EXPECT_EQ(a.achievedQps, b.achievedQps);
    ASSERT_EQ(a.perMachine.size(), b.perMachine.size());
    for (size_t m = 0; m < a.perMachine.size(); m++) {
        EXPECT_EQ(a.perMachine[m].requestsDispatched,
                  b.perMachine[m].requestsDispatched);
        EXPECT_EQ(a.perMachine[m].busyCoreSeconds,
                  b.perMachine[m].busyCoreSeconds);
    }
}

TEST(EngineDiff, DisabledOverloadLayerIsBitwiseInvisible)
{
    // AdmissionKind::None with degrade off must leave the simulation
    // untouched — same routing, same latencies, same integrals — even
    // when goodput *accounting* (a bare deadline) is on. The overload
    // layer only ever observes the disabled path; it must never
    // perturb it.
    const QueryTrace trace = poissonTrace(1500, 5200.0);
    ClusterConfig plain;
    for (size_t m = 0; m < 3; m++)
        plain.machines.push_back(
            machineConfig(ModelId::DlrmRmc1, 256, false, 1));

    ClusterConfig accounting = plain;
    accounting.overload.deadlineSeconds = 0.1; // still enabled() == false
    ASSERT_FALSE(accounting.overload.enabled());

    const RoutingSpec routing{RoutingKind::PowerOfTwoChoices};
    const ClusterResult r_plain = ClusterSimulator(plain).run(
        trace, routing);
    const ClusterResult r_acct = ClusterSimulator(accounting).run(
        trace, routing);

    expectIdenticalClusterRuns(r_plain, r_acct);
    EXPECT_EQ(r_acct.overload.dropped, 0u);
    EXPECT_EQ(r_acct.overload.degraded, 0u);
    EXPECT_EQ(r_acct.overload.admitted, r_acct.numDispatched);
    // Accounting populates goodput on the side; the plain run leaves
    // it zero. Both see every query.
    EXPECT_GT(r_acct.overload.goodputQps, 0.0);
    EXPECT_EQ(r_plain.overload.goodputQps, 0.0);
    EXPECT_EQ(r_plain.overload.offered, trace.size());
    EXPECT_EQ(r_acct.overload.offered, trace.size());
}

TEST(EngineDiff, SingleMachineMatchesClusterWithAccountingEnabled)
{
    // The serving-vs-cluster equivalence holds with the accounting
    // variant of the overload config too: expectIdenticalRuns pins
    // the raw latency vectors, so this extends the definition of a
    // 1-machine cluster to the accounting path.
    SimConfig machine = machineConfig(ModelId::DlrmRmc1, 128, false, 1);
    const QueryTrace trace = poissonTrace(1200, 1800.0);

    ServingSimulator serving(machine);
    const SimResult s = serving.run(trace);

    ClusterConfig cluster = oneMachineCluster(machine);
    cluster.overload.deadlineSeconds = 0.25;
    const ClusterResult c = ClusterSimulator(cluster).run(
        trace, RoutingSpec{RoutingKind::RoundRobin});

    ASSERT_EQ(s.queryLatencySeconds.count(), c.fleetLatencySeconds.count());
    EXPECT_EQ(s.queryLatencySeconds.raw(), c.fleetLatencySeconds.raw());
    EXPECT_EQ(s.achievedQps, c.achievedQps);
    EXPECT_EQ(c.overload.dropped, 0u);
}

TEST(EngineDiff, AutoscalerIgnoresDisabledOverloadBitwise)
{
    // Same invisibility contract for the elastic driver: a bare
    // deadline must not move a single completion, window, or scale
    // decision.
    const QueryTrace trace = poissonTrace(3000, 6000.0);
    AutoscaleSpec spec;
    for (size_t m = 0; m < 4; m++)
        spec.cluster.machines.push_back(
            machineConfig(ModelId::DlrmRmc1, 256, false, 1));
    spec.routing.kind = RoutingKind::PowerOfTwoChoices;
    spec.slaMs = 100.0;
    spec.initialMachines = 2;
    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Reactive;
    policy.minMachines = 2;

    AutoscaleSpec acct = spec;
    acct.cluster.overload.deadlineSeconds = 0.1;
    ASSERT_FALSE(acct.cluster.overload.enabled());

    const AutoscaleResult a = Autoscaler(spec).run(trace, policy);
    const AutoscaleResult b = Autoscaler(acct).run(trace, policy);

    ASSERT_EQ(a.fleetLatencySeconds.count(), b.fleetLatencySeconds.count());
    EXPECT_EQ(a.fleetLatencySeconds.raw(), b.fleetLatencySeconds.raw());
    EXPECT_EQ(a.numDispatched, b.numDispatched);
    EXPECT_EQ(a.machineSeconds, b.machineSeconds);
    EXPECT_EQ(a.slaViolationSeconds, b.slaViolationSeconds);
    ASSERT_EQ(a.scaleEvents.size(), b.scaleEvents.size());
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (size_t w = 0; w < a.timeline.size(); w++) {
        EXPECT_EQ(a.timeline[w].endSeconds, b.timeline[w].endSeconds);
        EXPECT_EQ(a.timeline[w].tailMs, b.timeline[w].tailMs);
        EXPECT_EQ(a.timeline[w].servingMachines,
                  b.timeline[w].servingMachines);
        EXPECT_EQ(a.timeline[w].drops, b.timeline[w].drops);
        EXPECT_EQ(b.timeline[w].drops, 0u);
    }
    EXPECT_EQ(b.overload.dropped, 0u);
    EXPECT_GT(b.overload.goodputQps, 0.0);
    EXPECT_EQ(a.overload.goodputQps, 0.0);
}

// ------------------------------------------------ one-model model mix

/** @p plain with a 1-entry model mix at traffic fraction 1.0 —
 *  identical machine objects, so every cost-model evaluation runs the
 *  same floating-point sequence and the multi-model layer must be
 *  bitwise invisible. */
ClusterConfig
withUnitMix(const ClusterConfig& plain, ModelId id)
{
    ClusterConfig mixed = plain;
    mixed.modelMix = {makeMixEntry(id, 1.0)};
    return mixed;
}

/** The 1-entry mix's per-model books must mirror the fleet totals
 *  exactly: same offered/completed/dropped counts, same raw latency
 *  vector, full conservation under a single ModelId. */
void
expectUnitMixBooks(const ClusterResult& mixed, size_t trace_size)
{
    ASSERT_EQ(mixed.perModel.size(), 1u);
    const ModelStats& ms = mixed.perModel[0];
    EXPECT_EQ(ms.offered, trace_size);
    EXPECT_EQ(ms.completed, mixed.numCompleted);
    EXPECT_EQ(ms.droppedFinal, mixed.overload.dropped);
    EXPECT_EQ(ms.offered, ms.completed + ms.droppedFinal + ms.lost);
    EXPECT_EQ(ms.latencySeconds.raw(), mixed.fleetLatencySeconds.raw());
}

TEST(EngineDiff, OneModelMixIsBitwiseInvisibleShardless)
{
    // A 1-entry modelMix on a plain replicated tier: the per-model
    // queue-cost books, batch formation keyed by model, and model-
    // tagged join accounting must not move a single bit of the run.
    const QueryTrace trace = poissonTrace(1800, 4200.0);
    ClusterConfig plain;
    for (size_t m = 0; m < 3; m++)
        plain.machines.push_back(
            machineConfig(ModelId::DlrmRmc1, 256, false, 1));
    const ClusterConfig mixed = withUnitMix(plain, ModelId::DlrmRmc1);

    const RoutingSpec routing{RoutingKind::PowerOfTwoChoices};
    const ClusterResult a = ClusterSimulator(plain).run(trace, routing);
    const ClusterResult b = ClusterSimulator(mixed).run(trace, routing);

    expectIdenticalClusterRuns(a, b);
    EXPECT_TRUE(a.perModel.empty());
    expectUnitMixBooks(b, trace.size());
}

TEST(EngineDiff, OneModelMixIsBitwiseInvisibleSharded)
{
    // Sharded fan-out/join path: with the mix on, the per-model
    // pendingJoinCost books must reproduce the mix-off sharded run
    // exactly over the same one-namespace table space.
    const ClusterConfig plain = bench::rmc2ShardedTier(6, 2'000'000'000ULL);
    ASSERT_TRUE(plain.sharding->placement.feasible());

    const QueryTrace trace = poissonTrace(1600, 2200.0, 0x5eed);
    const RoutingSpec routing{RoutingKind::ShardAware};
    const ClusterResult a = ClusterSimulator(plain).run(trace, routing);

    const ClusterConfig mixed = withUnitMix(plain, ModelId::DlrmRmc2);
    const ClusterResult b = ClusterSimulator(mixed).run(trace, routing);
    expectIdenticalClusterRuns(a, b);
    expectUnitMixBooks(b, trace.size());
}

TEST(EngineDiff, OneModelMixIsBitwiseInvisibleOverloaded)
{
    // Deadline admission prices the critical path through the
    // per-model calibration tables; at numModels == 1 the flattened
    // layout degenerates to the historical one and every admit/drop
    // decision must be identical.
    const QueryTrace trace = poissonTrace(2500, 9500.0, 0xdead);
    ClusterConfig plain;
    for (size_t m = 0; m < 3; m++)
        plain.machines.push_back(
            machineConfig(ModelId::DlrmRmc1, 256, false, 1));
    plain.overload.admission = AdmissionKind::Deadline;
    plain.overload.deadlineSeconds = 0.05;
    plain.overload.degrade = true;
    ASSERT_TRUE(plain.overload.enabled());
    const ClusterConfig mixed = withUnitMix(plain, ModelId::DlrmRmc1);

    const RoutingSpec routing{RoutingKind::PowerOfTwoChoices};
    const ClusterResult a = ClusterSimulator(plain).run(trace, routing);
    const ClusterResult b = ClusterSimulator(mixed).run(trace, routing);

    expectIdenticalClusterRuns(a, b);
    EXPECT_EQ(a.overload.dropped, b.overload.dropped);
    EXPECT_EQ(a.overload.degraded, b.overload.degraded);
    EXPECT_EQ(a.overload.goodputQps, b.overload.goodputQps);
    EXPECT_GT(b.overload.dropped, 0u) << "overload scenario not biting";
    expectUnitMixBooks(b, trace.size());
}

TEST(EngineDiff, OneModelMixIsBitwiseInvisibleAutoscaled)
{
    // Elastic tier: the mix must not move a completion, window
    // boundary, or scale decision — ElasticView's per-model signals
    // fall back to the fleet totals at one model.
    const QueryTrace trace = poissonTrace(3000, 6000.0);
    AutoscaleSpec spec;
    for (size_t m = 0; m < 4; m++)
        spec.cluster.machines.push_back(
            machineConfig(ModelId::DlrmRmc1, 256, false, 1));
    spec.routing.kind = RoutingKind::PowerOfTwoChoices;
    spec.slaMs = 100.0;
    spec.initialMachines = 2;
    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Reactive;
    policy.minMachines = 2;

    AutoscaleSpec mixed = spec;
    mixed.cluster.modelMix = {makeMixEntry(ModelId::DlrmRmc1, 1.0)};

    const AutoscaleResult a = Autoscaler(spec).run(trace, policy);
    const AutoscaleResult b = Autoscaler(mixed).run(trace, policy);

    ASSERT_EQ(a.fleetLatencySeconds.count(), b.fleetLatencySeconds.count());
    EXPECT_EQ(a.fleetLatencySeconds.raw(), b.fleetLatencySeconds.raw());
    EXPECT_EQ(a.numDispatched, b.numDispatched);
    EXPECT_EQ(a.machineSeconds, b.machineSeconds);
    EXPECT_EQ(a.slaViolationSeconds, b.slaViolationSeconds);
    ASSERT_EQ(a.scaleEvents.size(), b.scaleEvents.size());
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (size_t w = 0; w < a.timeline.size(); w++) {
        EXPECT_EQ(a.timeline[w].endSeconds, b.timeline[w].endSeconds);
        EXPECT_EQ(a.timeline[w].tailMs, b.timeline[w].tailMs);
        EXPECT_EQ(a.timeline[w].servingMachines,
                  b.timeline[w].servingMachines);
    }
}

} // namespace
} // namespace deeprecsys
