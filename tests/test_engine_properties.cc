/**
 * @file
 * Property tests for the unified event engine and the searches built
 * on it: query conservation under fan-out/join, bitwise determinism
 * across repeated runs for every routing policy, tail-latency
 * monotonicity in offered rate (the invariant the max-QPS bisections
 * rely on), and the two-stage join dependency model.
 */

#include <gtest/gtest.h>

#include <set>

#include "base/random.hh"
#include "bench/bench_common.hh"
#include "cluster/cluster_qps_search.hh"
#include "cluster/cluster_sim.hh"
#include "cluster/shard_placement.hh"
#include "loadgen/query_stream.hh"
#include "sim/qps_search.hh"
#include "tests/fixtures.hh"

namespace deeprecsys {
namespace {

constexpr uint64_t kGB = 1'000'000'000ULL;

/** Mixed tier: CPU-only, slow, and accelerated machines. */
ClusterConfig
mixedCluster(size_t n)
{
    ClusterConfig cfg;
    for (size_t m = 0; m < n; m++) {
        if (m % 3 == 2)
            cfg.machines.push_back(gpuMachine());
        else
            cfg.machines.push_back(cpuMachine(m % 3 == 1 ? 1.4 : 1.0));
    }
    return cfg;
}

/** Sharded RMC2 tier whose working sets force fan-out. */
ClusterConfig
shardedCluster(size_t n, uint64_t budget, JoinModel join)
{
    ClusterConfig cfg = bench::rmc2ShardedTier(n, budget);
    cfg.join = join;
    cfg.network.hopSeconds = 100e-6;
    return cfg;
}

// ---------------------------------------------------------- conservation

TEST(EngineProperties, ConservationUnderFanOutJoinBothJoinModels)
{
    const QueryTrace trace = makeTrace(2500, 1500.0, 11);
    for (JoinModel join : {JoinModel::Optimistic, JoinModel::TwoStage}) {
        SCOPED_TRACE(joinModelName(join));
        const ClusterConfig cfg = shardedCluster(8, 2 * kGB, join);
        const ClusterResult r = ClusterSimulator(cfg).run(
            trace, RoutingSpec{RoutingKind::ShardAware});

        EXPECT_EQ(r.numDispatched, trace.size());
        EXPECT_EQ(r.numCompleted, trace.size());
        EXPECT_GT(r.meanFanout, 1.0);
        uint64_t led = 0;
        uint64_t completed = 0;
        for (const MachineStats& m : r.perMachine) {
            led += m.queriesDispatched;
            completed += m.queriesCompleted;
        }
        EXPECT_EQ(led, trace.size());
        EXPECT_EQ(completed, trace.size());
    }
}

TEST(EngineProperties, ConservationUnderEveryRoutingPolicy)
{
    const QueryTrace trace = makeTrace(2000, 9000.0, 11);
    const ClusterSimulator sim(mixedCluster(9));
    for (RoutingKind kind : allRoutingKinds()) {
        SCOPED_TRACE(routingKindName(kind));
        const ClusterResult r = sim.run(trace, RoutingSpec{kind});
        EXPECT_EQ(r.numDispatched, trace.size());
        EXPECT_EQ(r.numCompleted, trace.size());
        EXPECT_EQ(r.numParts, trace.size());    // whole-query policies
    }
}

TEST(EngineProperties, TwoStageJoinPhaseAccounting)
{
    // Exactly one dense phase per fanned-out query, led on the
    // query's leader machine; single-hop queries never pay one.
    const ClusterConfig cfg = shardedCluster(8, 2 * kGB,
                                             JoinModel::TwoStage);
    const QueryTrace trace = makeTrace(1500, 1200.0, 11);
    const ClusterResult r = ClusterSimulator(cfg).run(
        trace, RoutingSpec{RoutingKind::ShardAware});

    uint64_t fanned = 0;
    for (const auto& machines : r.partMachinesOfQuery)
        if (machines.size() > 1)
            fanned++;
    uint64_t phases = 0;
    for (const MachineStats& m : r.perMachine)
        phases += m.joinPhases;
    EXPECT_GT(fanned, 0u);
    EXPECT_EQ(phases, fanned);
}

// ----------------------------------------------------------- determinism

TEST(EngineProperties, BitwiseDeterminismForEveryRoutingPolicy)
{
    const QueryTrace trace = makeTrace(3000, 10000.0, 11);
    const ClusterSimulator sim(mixedCluster(8));
    for (RoutingKind kind : allRoutingKinds()) {
        SCOPED_TRACE(routingKindName(kind));
        RoutingSpec spec;
        spec.kind = kind;
        spec.seed = 99;
        const ClusterResult a = sim.run(trace, spec);
        const ClusterResult b = sim.run(trace, spec);
        // Bitwise: the raw per-query latency samples, in completion
        // order, and every per-machine integral.
        EXPECT_EQ(a.fleetLatencySeconds.raw(),
                  b.fleetLatencySeconds.raw());
        EXPECT_EQ(a.machineOfQuery, b.machineOfQuery);
        for (size_t m = 0; m < a.perMachine.size(); m++) {
            EXPECT_EQ(a.perMachine[m].busyCoreSeconds,
                      b.perMachine[m].busyCoreSeconds);
            EXPECT_EQ(a.perMachine[m].requestsDispatched,
                      b.perMachine[m].requestsDispatched);
        }
    }
}

TEST(EngineProperties, BitwiseDeterminismShardAwareBothJoinModels)
{
    const QueryTrace trace = makeTrace(2000, 1400.0, 11);
    for (JoinModel join : {JoinModel::Optimistic, JoinModel::TwoStage}) {
        SCOPED_TRACE(joinModelName(join));
        const ClusterSimulator sim(shardedCluster(8, 2 * kGB, join));
        RoutingSpec spec;
        spec.kind = RoutingKind::ShardAware;
        const ClusterResult a = sim.run(trace, spec);
        const ClusterResult b = sim.run(trace, spec);
        EXPECT_EQ(a.fleetLatencySeconds.raw(),
                  b.fleetLatencySeconds.raw());
        EXPECT_EQ(a.partMachinesOfQuery, b.partMachinesOfQuery);
    }
}

TEST(EngineProperties, ServingSimulatorBitwiseDeterminism)
{
    const QueryTrace trace = makeTrace(2000, 800.0, 11);
    ServingSimulator a(cpuMachine());
    ServingSimulator b(cpuMachine());
    EXPECT_EQ(a.run(trace).queryLatencySeconds.raw(),
              b.run(trace).queryLatencySeconds.raw());
}

// ---------------------------------------------------------- monotonicity

TEST(EngineProperties, SingleMachineTailMonotoneInOfferedQps)
{
    // The invariant findMaxQps's bisection rests on: re-timing the
    // same query population at a higher rate never improves the tail.
    const SimConfig machine = cpuMachine();
    LoadSpec load;
    double prev = 0.0;
    for (double qps : {200.0, 400.0, 800.0, 1600.0, 3200.0}) {
        const SimResult r = evaluateAtQps(machine, load, qps, 2000);
        EXPECT_GE(r.p99Ms(), prev * (1.0 - 1e-9)) << "at " << qps;
        prev = r.p99Ms();
    }
}

TEST(EngineProperties, ClusterTailMonotoneInOfferedQps)
{
    const ClusterConfig cluster = mixedCluster(6);
    ClusterQpsSpec spec;
    spec.numQueries = 2400;
    double prev = 0.0;
    for (double qps : {2000.0, 4000.0, 8000.0, 16000.0}) {
        const ClusterResult r =
            evaluateClusterAtQps(cluster, spec, qps);
        EXPECT_GE(r.p99Ms(), prev * (1.0 - 1e-9)) << "at " << qps;
        prev = r.p99Ms();
    }
}

TEST(EngineProperties, FindMaxQpsResultIsOnTheFeasibleBoundary)
{
    QpsSearchSpec spec;
    spec.slaMs = 100.0;
    spec.numQueries = 1500;
    const QpsSearchResult r = findMaxQps(cpuMachine(), spec);
    ASSERT_GT(r.maxQps, 0.0);
    // Feasible at the found rate...
    EXPECT_LE(r.atMax.tailMs(spec.percentile), spec.slaMs);
    // ...and infeasible comfortably above it.
    const SimResult above = evaluateAtQps(cpuMachine(), spec.load,
                                          1.25 * r.maxQps,
                                          spec.numQueries);
    EXPECT_GT(above.tailMs(spec.percentile), spec.slaMs);
}

TEST(EngineProperties, FindClusterMaxQpsScalesWithMachines)
{
    ClusterQpsSpec spec;
    spec.slaMs = 100.0;
    spec.numQueries = 1800;
    ClusterConfig two;
    two.machines = {cpuMachine(), cpuMachine()};
    ClusterConfig four;
    four.machines = {cpuMachine(), cpuMachine(), cpuMachine(),
                     cpuMachine()};
    const double small = findClusterMaxQps(two, spec).maxQps;
    const double large = findClusterMaxQps(four, spec).maxQps;
    ASSERT_GT(small, 0.0);
    EXPECT_GT(large, 1.6 * small);
}

// ------------------------------------------------------- two-stage join

TEST(EngineProperties, TwoStageJoinNeverFasterThanOptimistic)
{
    // Serializing the dense stacks behind the slowest embedding part
    // can only lengthen fanned-out queries.
    const QueryTrace trace = makeTrace(2000, 1200.0, 11);
    RoutingSpec spec;
    spec.kind = RoutingKind::ShardAware;
    const ClusterResult optimistic =
        ClusterSimulator(shardedCluster(8, 2 * kGB,
                                        JoinModel::Optimistic))
            .run(trace, spec);
    const ClusterResult two_stage =
        ClusterSimulator(shardedCluster(8, 2 * kGB,
                                        JoinModel::TwoStage))
            .run(trace, spec);
    EXPECT_GE(two_stage.meanMs(), optimistic.meanMs());
    EXPECT_GE(two_stage.p99Ms(), optimistic.p99Ms());
}

TEST(EngineProperties, JoinModelsAgreeExactlyWithoutFanOut)
{
    // Whole-query dispatch never enters the join path, so the two
    // models must be bit-identical on a shardless cluster.
    const QueryTrace trace = makeTrace(1500, 8000.0, 11);
    ClusterConfig optimistic = mixedCluster(6);
    optimistic.join = JoinModel::Optimistic;
    ClusterConfig two_stage = mixedCluster(6);
    two_stage.join = JoinModel::TwoStage;
    RoutingSpec spec;
    spec.kind = RoutingKind::PowerOfTwoChoices;
    const ClusterResult a =
        ClusterSimulator(optimistic).run(trace, spec);
    const ClusterResult b =
        ClusterSimulator(two_stage).run(trace, spec);
    EXPECT_EQ(a.fleetLatencySeconds.raw(), b.fleetLatencySeconds.raw());
    EXPECT_EQ(a.machineOfQuery, b.machineOfQuery);
}

TEST(EngineProperties, TwoStageLeaderHopPricesPooledEmbeddings)
{
    // A slower link lengthens every hop, but only the TwoStage join
    // ships the pooled embeddings to the leader (the leader waits on
    // the transfer): its fan-out path grows by more than the
    // optimistic join's, which pays the request and return hops alone.
    const QueryTrace trace = makeTrace(1200, 1000.0, 11);
    RoutingSpec spec;
    spec.kind = RoutingKind::ShardAware;
    auto slow_link_ms = [&](JoinModel join) {
        const ClusterConfig fast = shardedCluster(8, 2 * kGB, join);
        ClusterConfig slow = fast;
        slow.network.gigabytesPerSecond = 0.05;
        return ClusterSimulator(slow).run(trace, spec).meanMs() -
            ClusterSimulator(fast).run(trace, spec).meanMs();
    };
    const double optimistic = slow_link_ms(JoinModel::Optimistic);
    EXPECT_GT(optimistic, 0.0);
    EXPECT_GT(slow_link_ms(JoinModel::TwoStage), optimistic);
}

// ------------------------------------------- randomized overload sweep

TEST(EngineProperties, RandomizedOverloadConfigsHoldInvariants)
{
    // Random admission/degrade configurations against random tiers
    // and rates: whatever the policy, degraded queries never exceed
    // their original size, the deadline accounting reconciles, and
    // quality-weighted goodput never exceeds the raw within-deadline
    // completion rate (quality factors live in (0, 1]).
    Rng rng(0x0eadULL);
    for (int round = 0; round < 16; round++) {
        OverloadConfig overload;
        const int kind = static_cast<int>(rng.uniformInt(0, 2));
        overload.admission = static_cast<AdmissionKind>(kind);
        // The queue-depth cap and the degrade shape are fixed. Their
        // draws once configured them; they stay so that every round
        // keeps its tier, load and trace.
        (void)rng.uniformInt(4, 200);
        overload.deadlineSeconds = rng.uniform(0.03, 0.3);
        overload.degrade = rng.uniform() < 0.5;
        (void)rng.uniform(0.0, 0.9);
        (void)rng.uniform(0.1, 1.0);
        (void)rng.uniformInt(1, 64);
        (void)rng.uniform(0.5, 3.0);

        const size_t machines = static_cast<size_t>(rng.uniformInt(1, 5));
        const double qps =
            rng.uniform(1000.0, 4000.0) * static_cast<double>(machines);
        const size_t count = static_cast<size_t>(
            rng.uniformInt(500, 2000));

        SCOPED_TRACE("round " + std::to_string(round) + " admission " +
                     std::to_string(kind) + " degrade " +
                     std::to_string(overload.degrade) + " machines " +
                     std::to_string(machines) + " qps " +
                     std::to_string(qps));

        ClusterConfig cfg;
        for (size_t m = 0; m < machines; m++)
            cfg.machines.push_back(cpuMachine());
        cfg.overload = overload;
        const QueryTrace trace = makeTrace(count, qps, rng());
        const ClusterResult r = ClusterSimulator(cfg).run(
            trace, RoutingSpec{RoutingKind::PowerOfTwoChoices});

        // Conservation, whatever was shed.
        EXPECT_EQ(r.overload.offered, trace.size());
        EXPECT_EQ(r.overload.dropped + r.numDispatched, trace.size());
        EXPECT_EQ(r.numCompleted, r.numDispatched);
        if (overload.admission == AdmissionKind::None) {
            EXPECT_EQ(r.overload.dropped, 0u);
        }
        if (!overload.degrade) {
            EXPECT_EQ(r.overload.degraded, 0u);
        }

        // Degraded queries shrink, never grow, and respect the floor.
        for (const DegradeRecord& rec : r.overload.degradedQueries) {
            const uint32_t original = trace[rec.queryIdx].size;
            EXPECT_LT(rec.servedSize, original);
            EXPECT_GE(rec.servedSize, std::min(original, overload.minSize));
        }

        // Deadline accounting: within-deadline completions are a
        // subset of measured completions, and the quality weight a
        // discount on them — so quality-weighted goodput can never
        // exceed the raw within-deadline (or overall) completion rate.
        EXPECT_EQ(r.overload.measuredCompleted, r.numQueries);
        EXPECT_LE(r.overload.completedWithinDeadline,
                  r.overload.measuredCompleted);
        EXPECT_LE(r.overload.qualityWeight,
                  static_cast<double>(r.overload.completedWithinDeadline));
        if (r.spanSeconds > 0.0) {
            EXPECT_LE(r.overload.goodputQps, r.achievedQps + 1e-9);
            EXPECT_DOUBLE_EQ(r.overload.goodputQps,
                             r.overload.qualityWeight / r.spanSeconds);
        }
    }
}

} // namespace
} // namespace deeprecsys
