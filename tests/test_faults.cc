/**
 * @file
 * Fault-injection and recovery tests: the chaos schedule's purity
 * contract, the drivers' validation gates, the exact three-way
 * conservation algebra offered == completed + droppedFinal + lost
 * under crashes, the recovery machinery (replication, failover,
 * repair), the hedged-request bookkeeping properties, and the
 * thread-count bitwise invariance of chaos sweeps.
 *
 * Every run here is deterministic: the fault schedule is a pure
 * function of (seed, machine, horizon), so each assertion pins real
 * behavior, not a distribution.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "base/thread_pool.hh"
#include "bench/bench_common.hh"
#include "cluster/autoscaler.hh"
#include "cluster/cluster_sim.hh"
#include "cluster/shard_placement.hh"
#include "loadgen/query_stream.hh"

namespace deeprecsys {
namespace {

constexpr size_t kManyThreads = 8;

/** 8 DLRM-RMC2 machines, tables on >= @p min_replicas of them. */
ClusterConfig
chaosTier(uint32_t min_replicas)
{
    PlacementSpec placement_spec;
    placement_spec.minReplicas = min_replicas;
    ClusterConfig cluster = bench::rmc2ShardedTier(
        8, min_replicas > 1 ? 3'000'000'000ULL : 2'000'000'000ULL,
        placement_spec);
    EXPECT_TRUE(cluster.sharding->placement.feasible());
    EXPECT_TRUE(cluster.sharding->placement.replicatedFor(min_replicas));
    return cluster;
}

QueryTrace
chaosTrace(size_t count = 4000, double qps = 1000.0)
{
    LoadSpec load;
    load.arrivalSeed = 0xfa017;
    load.sizeSeed = 0xfa018;
    TraceTemplate tmpl(load);
    tmpl.ensure(count);
    return tmpl.materialize(qps, count);
}

/** A chaos plan hot enough to bite on a seconds-long trace. */
FaultPlan
hotPlan()
{
    FaultPlan plan;
    plan.crashesPerHour = 240.0;
    plan.grayPerHour = 120.0;
    plan.repairSeconds = 1.5;
    return plan;
}

/** The replicated chaos tier under a hot plan with failover, plus
 *  variants that reach every way a part can die or outlive its
 *  dispatch. */
std::vector<std::pair<const char*, ClusterConfig>>
partDeathTiers()
{
    ClusterConfig hot = chaosTier(2);
    hot.faults = hotPlan();
    hot.faults.faultTolerance = 2;
    hot.faults.maxFailovers = 2;
    // A slow network stretches forward hops and the pooled-embedding
    // hop to the leader past a zero failover backoff: stale
    // PartArrivals land after their query was re-presented, and
    // leaders restart while their join phase is in flight.
    ClusterConfig slow_net = hot;
    slow_net.network.hopSeconds = 20e-3;
    slow_net.faults.failoverDelaySeconds = 0.0;
    // A backoff far longer than any part lives: the re-presented
    // dispatch starts long after every part of its dead one ended.
    ClusterConfig long_backoff = hot;
    long_backoff.faults.maxFailovers = 3;
    long_backoff.faults.failoverDelaySeconds = 0.5;
    return {{"hot", hot},
            {"slow_net_zero_backoff", slow_net},
            {"long_backoff", long_backoff}};
}

ClusterResult
runChaos(const ClusterConfig& cfg, const QueryTrace& trace)
{
    RoutingSpec routing;
    routing.kind = RoutingKind::ShardAware;
    return ClusterSimulator(cfg).run(trace, routing);
}

// ------------------------------------------------------ the schedule

TEST(FaultSchedule, PureAndSorted)
{
    const FaultPlan plan = hotPlan();
    const auto a = buildFaultSchedule(plan, 8, 0.0, 10.0);
    const auto b = buildFaultSchedule(plan, 8, 0.0, 10.0);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].time, b[i].time);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].machine, b[i].machine);
    }
    for (size_t i = 1; i < a.size(); i++) {
        const bool ordered =
            a[i - 1].time < a[i].time ||
            (a[i - 1].time == a[i].time &&
             (a[i - 1].machine < a[i].machine ||
              (a[i - 1].machine == a[i].machine &&
               static_cast<int>(a[i - 1].kind) <=
                   static_cast<int>(a[i].kind))));
        EXPECT_TRUE(ordered) << "schedule out of order at " << i;
    }
}

TEST(FaultSchedule, MachineStreamsIndependentOfFleetSize)
{
    // Adding machines must never perturb the streams of existing
    // ones: the small fleet's schedule is exactly the big fleet's
    // schedule restricted to its machines.
    const FaultPlan plan = hotPlan();
    const auto small = buildFaultSchedule(plan, 3, 0.0, 20.0);
    auto big = buildFaultSchedule(plan, 8, 0.0, 20.0);
    big.erase(std::remove_if(big.begin(), big.end(),
                             [](const FaultEvent& e) {
                                 return e.machine >= 3;
                             }),
              big.end());
    ASSERT_EQ(small.size(), big.size());
    for (size_t i = 0; i < small.size(); i++) {
        EXPECT_EQ(small[i].time, big[i].time);
        EXPECT_EQ(small[i].kind, big[i].kind);
        EXPECT_EQ(small[i].machine, big[i].machine);
    }
}

TEST(FaultSchedule, EveryWindowCloses)
{
    const FaultPlan plan = hotPlan();
    const auto schedule = buildFaultSchedule(plan, 8, 0.0, 10.0);
    // Per machine, openings and closings alternate and balance, even
    // when the close lands past the horizon.
    for (uint32_t m = 0; m < 8; m++) {
        int depth_crash = 0;
        int depth_gray = 0;
        for (const FaultEvent& e : schedule) {
            if (e.machine != m)
                continue;
            switch (e.kind) {
              case FaultEvent::Kind::Crash: depth_crash++; break;
              case FaultEvent::Kind::Recover: depth_crash--; break;
              case FaultEvent::Kind::GrayStart: depth_gray++; break;
              case FaultEvent::Kind::GrayEnd: depth_gray--; break;
            }
        }
        EXPECT_EQ(depth_crash, 0) << "machine " << m;
        EXPECT_EQ(depth_gray, 0) << "machine " << m;
    }
}

TEST(FaultSchedule, DisabledPlanEmitsNothing)
{
    const FaultPlan plan;    // all sources off
    EXPECT_FALSE(plan.enabled());
    EXPECT_TRUE(buildFaultSchedule(plan, 8, 0.0, 100.0).empty());
}

TEST(FaultSchedule, CorrelatedCrashTakesTheGroupDownTogether)
{
    FaultPlan plan;
    plan.correlatedCrashSeconds = 2.0;
    plan.correlatedCrashMachines = 3;
    plan.repairSeconds = 1.0;
    EXPECT_TRUE(plan.enabled());
    const auto schedule = buildFaultSchedule(plan, 8, 10.0, 20.0);
    ASSERT_EQ(schedule.size(), 6u);
    for (uint32_t m = 0; m < 3; m++) {
        EXPECT_EQ(schedule[m].kind, FaultEvent::Kind::Crash);
        EXPECT_EQ(schedule[m].machine, m);
        EXPECT_DOUBLE_EQ(schedule[m].time, 12.0);
        EXPECT_EQ(schedule[3 + m].kind, FaultEvent::Kind::Recover);
        EXPECT_DOUBLE_EQ(schedule[3 + m].time, 13.0);
    }
}

// ------------------------------------------------- validation gates

TEST(FaultPlanDeath, RejectsMalformedPlans)
{
    FaultPlan negative_rate;
    negative_rate.crashesPerHour = -1.0;
    EXPECT_EXIT(validateFaultPlan(negative_rate),
                ::testing::ExitedWithCode(1), "non-negative");
    FaultPlan zero_repair;
    zero_repair.repairSeconds = 0.0;
    EXPECT_EXIT(validateFaultPlan(zero_repair),
                ::testing::ExitedWithCode(1), "repair");
    FaultPlan zero_window;
    zero_window.grayDurationSeconds = 0.0;
    EXPECT_EXIT(validateFaultPlan(zero_window),
                ::testing::ExitedWithCode(1), "positive length");
}

TEST(FaultPlanDeath, DriverRefusesUnderReplicatedPlacement)
{
    // A single-copy placement cannot survive the declared tolerance;
    // the driver must refuse to run rather than lose data silently.
    ClusterConfig cfg = chaosTier(1);
    cfg.faults.crashesPerHour = 10.0;
    cfg.faults.faultTolerance = 2;
    EXPECT_EXIT(ClusterSimulator{cfg}, ::testing::ExitedWithCode(1),
                "replication below");
}

TEST(FaultPlanDeath, HedgeNeedsShardedTier)
{
    ClusterConfig cfg = chaosTier(2);
    cfg.sharding.reset();
    cfg.hedge.delaySeconds = 0.01;
    EXPECT_EXIT(ClusterSimulator{cfg}, ::testing::ExitedWithCode(1),
                "sharded tier");
}

// ------------------------------------------------------ conservation

TEST(FaultConservation, ThreeWayAlgebraExactUnderChaos)
{
    const QueryTrace trace = chaosTrace();
    for (const auto& [name, cfg] : partDeathTiers()) {
        SCOPED_TRACE(name);
        const ClusterResult r = runChaos(cfg, trace);

        // The run must actually exercise the machinery it claims to.
        EXPECT_GT(r.faults.crashes, 0u);
        EXPECT_GT(r.faults.recoveries, 0u);
        EXPECT_GT(r.faults.failovers, 0u);

        // offered == completed + droppedFinal + lost, in exact
        // integers (no admission control here, so droppedFinal is 0).
        EXPECT_EQ(trace.size(),
                  r.numCompleted + r.overload.droppedFinal + r.faults.lost);
        EXPECT_EQ(r.faults.lostQueries.size(), r.faults.lost);

        // The per-query fate record agrees with the books.
        uint64_t lost_marks = 0;
        for (const uint32_t m : r.machineOfQuery) {
            if (m == ClusterResult::lostMachine)
                lost_marks++;
        }
        EXPECT_EQ(lost_marks, r.faults.lost);

        // Every query a dead part belonged to was released, parts and
        // all: the driver's query book held a small fraction of the
        // trace at once.
        EXPECT_LT(r.peakHeldQueries * 32, trace.size());
    }
}

TEST(FaultConservation, SingleCopyLossesAreUnroutablePresentations)
{
    ClusterConfig cfg = chaosTier(1);
    cfg.faults = hotPlan();
    const QueryTrace trace = chaosTrace();
    const ClusterResult r = runChaos(cfg, trace);
    EXPECT_GT(r.faults.lost, 0u);
    EXPECT_GT(r.faults.unroutable, 0u);
    // No failover budget: every kill is final, nothing re-presents.
    EXPECT_EQ(r.faults.failovers, 0u);
    EXPECT_EQ(trace.size(), r.numCompleted + r.faults.lost);
}

TEST(FaultConservation, ElasticAlgebraExactUnderCrashes)
{
    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Reactive;
    policy.minMachines = 2;
    auto check = [&](const AutoscaleSpec& spec, const QueryTrace& trace) {
        const AutoscaleResult r = Autoscaler(spec).run(trace, policy);
        EXPECT_GT(r.faults.crashes, 0u);
        EXPECT_EQ(trace.size(),
                  r.numCompleted + r.overload.droppedFinal + r.faults.lost);
        EXPECT_EQ(r.faults.lostQueries.size(), r.faults.lost);
        EXPECT_LT(r.peakHeldQueries * 32, trace.size());
    };

    AutoscaleSpec spec;
    spec.cluster.machines.assign(4, bench::cpuMachine(256));
    spec.routing.kind = RoutingKind::PowerOfTwoChoices;
    spec.slaMs = 100.0;
    spec.controlIntervalSeconds = 0.5;
    spec.warmupDelaySeconds = 0.25;
    spec.cluster.faults.crashesPerHour = 900.0;
    spec.cluster.faults.repairSeconds = 1.0;
    spec.cluster.faults.maxFailovers = 1;

    LoadSpec load;
    load.qps = 2000.0;
    TraceTemplate tmpl(load);
    tmpl.ensure(8000);
    check(spec, tmpl.materialize(2000.0, 8000));

    // The sharded TwoStage tier under every part-death plan: fan-out
    // parts, join phases and drains on top of crashes.
    AutoscaleSpec sharded = spec;
    sharded.routing.kind = RoutingKind::ShardAware;
    const QueryTrace trace = chaosTrace();
    for (const auto& [name, cfg] : partDeathTiers()) {
        SCOPED_TRACE(name);
        sharded.cluster = cfg;
        check(sharded, trace);
    }
}

// -------------------------------------------------------- recovery

TEST(FaultRecovery, ReplicationAndFailoverRestoreAvailability)
{
    const QueryTrace trace = chaosTrace();

    ClusterConfig naive = chaosTier(1);
    naive.faults = hotPlan();
    const ClusterResult single = runChaos(naive, trace);

    ClusterConfig hardened = chaosTier(2);
    hardened.faults = hotPlan();
    hardened.faults.faultTolerance = 2;
    hardened.faults.maxFailovers = 4;
    hardened.faults.failoverDelaySeconds = 0.25;
    const ClusterResult replicated = runChaos(hardened, trace);

    EXPECT_GT(single.faults.lost, 0u);
    EXPECT_LT(replicated.faults.lost, single.faults.lost);
    EXPECT_GT(replicated.numCompleted, single.numCompleted);
}

TEST(FaultRecovery, FailoverBudgetReducesLoss)
{
    const QueryTrace trace = chaosTrace();
    ClusterConfig no_budget = chaosTier(2);
    no_budget.faults = hotPlan();
    const ClusterResult final_kills = runChaos(no_budget, trace);

    ClusterConfig budget = chaosTier(2);
    budget.faults = hotPlan();
    budget.faults.maxFailovers = 4;
    budget.faults.failoverDelaySeconds = 0.25;
    const ClusterResult retried = runChaos(budget, trace);

    EXPECT_GT(final_kills.faults.lost, 0u);
    EXPECT_GT(retried.faults.failovers, 0u);
    EXPECT_LT(retried.faults.lost, final_kills.faults.lost);
}

TEST(FaultRecovery, GrayWindowsRaiseTheTailNotLoss)
{
    const QueryTrace trace = chaosTrace();
    ClusterConfig calm = chaosTier(2);
    const ClusterResult healthy = runChaos(calm, trace);

    ClusterConfig gray = chaosTier(2);
    gray.faults.grayPerHour = 240.0;
    gray.faults.grayDurationSeconds = 2.0;
    const ClusterResult straggling = runChaos(gray, trace);

    EXPECT_GT(straggling.faults.grayWindows, 0u);
    EXPECT_EQ(straggling.faults.lost, 0u);
    EXPECT_EQ(straggling.numCompleted, trace.size());
    EXPECT_GT(straggling.p99Ms(), healthy.p99Ms());
}

TEST(FaultRecovery, SingleCrashRepairsAndServesAgain)
{
    // Exactly one deterministic crash (a correlated "group" of one),
    // early in the run: the machine must lose its in-flight work,
    // repair, and then serve again.
    ClusterConfig cfg = chaosTier(1);
    cfg.faults.correlatedCrashSeconds = 0.5;
    cfg.faults.correlatedCrashMachines = 1;
    cfg.faults.repairSeconds = 0.5;
    const QueryTrace trace = chaosTrace();
    const ClusterResult r = runChaos(cfg, trace);
    EXPECT_EQ(r.faults.crashes, 1u);
    EXPECT_EQ(r.faults.recoveries, 1u);
    EXPECT_GT(r.faults.lost, 0u);
    // The trace runs for ~4 s; a machine dead from 0.5 s onward could
    // not have completed most of its share. Serving again after the
    // 1.0 s repair shows up as completions well past the outage.
    EXPECT_GT(r.perMachine[0].queriesCompleted, 0u);
    EXPECT_EQ(trace.size(), r.numCompleted + r.faults.lost);
}

TEST(FaultRecovery, DisabledPlanIsBitwiseInvisible)
{
    // A default (disabled) FaultPlan and HedgeConfig must leave the
    // driver bitwise identical to the fault-free historical path.
    const QueryTrace trace = chaosTrace(2500);
    const ClusterConfig plain = chaosTier(2);
    ClusterConfig gated = chaosTier(2);
    gated.faults = FaultPlan{};
    gated.hedge = HedgeConfig{};
    const ClusterResult a = runChaos(plain, trace);
    const ClusterResult b = runChaos(gated, trace);
    EXPECT_EQ(a.numCompleted, b.numCompleted);
    EXPECT_EQ(a.numParts, b.numParts);
    EXPECT_EQ(a.machineOfQuery, b.machineOfQuery);
    EXPECT_DOUBLE_EQ(a.fleetLatencySeconds.sum(),
                     b.fleetLatencySeconds.sum());
    EXPECT_DOUBLE_EQ(a.p99Ms(), b.p99Ms());
    EXPECT_EQ(b.faults.crashes, 0u);
    EXPECT_EQ(b.faults.lost, 0u);
}

// ------------------------------------------------- hedged requests

TEST(HedgeProperties, EveryPairResolvesExactlyOnceOnACalmTier)
{
    // Aggressive hedging on a healthy tier: lots of duplicates, zero
    // crashes. Every pair must resolve to exactly one counted answer
    // (no goodput double-count) and exactly one discarded loser.
    ClusterConfig cfg = chaosTier(2);
    cfg.hedge.delaySeconds = 0.005;
    const QueryTrace trace = chaosTrace();
    const ClusterResult r = runChaos(cfg, trace);

    EXPECT_GT(r.faults.hedged, 0u);
    // One completion per query, however many copies raced.
    EXPECT_EQ(r.numCompleted, trace.size());
    // With no crashes both copies of every pair eventually finish:
    // one wins the race, the other is discarded — bijectively.
    EXPECT_EQ(r.faults.hedgeWasted, r.faults.hedged);
    EXPECT_LE(r.faults.hedgeWins, r.faults.hedged);
    EXPECT_EQ(r.faults.hedgeSaves, 0u);
    EXPECT_EQ(r.faults.lost, 0u);
    // Losers finish after their query completed, and their query is
    // held until then; still the book holds a small fraction of the
    // trace at once.
    EXPECT_LT(r.peakHeldQueries * 32, trace.size());
}

TEST(HedgeProperties, CancellationConservesBooksUnderCrashes)
{
    // Hedging under fire: duplicates, cancellations, crash-killed
    // copies, saves. The per-machine and query-level books must still
    // close exactly.
    ClusterConfig cfg = chaosTier(2);
    cfg.faults = hotPlan();
    cfg.faults.faultTolerance = 2;
    cfg.faults.maxFailovers = 2;
    cfg.hedge.delaySeconds = 0.02;
    const QueryTrace trace = chaosTrace();
    const ClusterResult r = runChaos(cfg, trace);

    EXPECT_GT(r.faults.hedged, 0u);
    EXPECT_GT(r.faults.crashes, 0u);
    EXPECT_EQ(trace.size(),
              r.numCompleted + r.overload.droppedFinal + r.faults.lost);
    EXPECT_LE(r.faults.hedgeWins + r.faults.hedgeWasted,
              2 * r.faults.hedged);
    EXPECT_LE(r.faults.hedgeSaves, r.faults.hedged);
    // Every query has a definite fate in the per-query record.
    uint64_t lost_marks = 0;
    for (const uint32_t m : r.machineOfQuery) {
        if (m == ClusterResult::lostMachine)
            lost_marks++;
    }
    EXPECT_EQ(lost_marks, r.faults.lost);
}

TEST(HedgeProperties, HedgeSavesRescueCrashKilledParts)
{
    // A hedged part whose original dies in a crash is carried by its
    // twin: under heavy crashes with hedging on, at least one query
    // must be saved this way, and saves never exceed issues.
    ClusterConfig cfg = chaosTier(2);
    cfg.faults = hotPlan();
    cfg.faults.crashesPerHour = 2400.0;
    cfg.faults.repairSeconds = 0.5;
    cfg.faults.faultTolerance = 2;
    cfg.faults.maxFailovers = 2;
    cfg.hedge.delaySeconds = 0.005;
    const QueryTrace trace = chaosTrace(8000);
    const ClusterResult r = runChaos(cfg, trace);
    EXPECT_GT(r.faults.hedgeSaves, 0u);
    EXPECT_LE(r.faults.hedgeSaves, r.faults.hedged);
    EXPECT_EQ(trace.size(),
              r.numCompleted + r.overload.droppedFinal + r.faults.lost);
}

// ------------------------------------- thread-count invariance

/** Run fn at one thread and kManyThreads, returning both results. */
template <typename Fn>
auto
atBothThreadCounts(Fn fn)
{
    ThreadPool::setSharedThreads(1);
    auto serial = fn();
    ThreadPool::setSharedThreads(kManyThreads);
    auto parallel = fn();
    ThreadPool::setSharedThreads(1);
    return std::make_pair(std::move(serial), std::move(parallel));
}

TEST(ChaosParallelDiff, ChaosSweepBitwiseEqualAcrossThreadCounts)
{
    // The chaos_availability sweep pattern: per-cell fault counters,
    // completions, and latency statistics must be bitwise identical
    // at every thread count — faults and hedges are decided inside
    // single-threaded runs, never by the pool.
    struct CellCfg
    {
        double crashesPerHour;
        uint32_t maxFailovers;
        double hedgeDelay;
    };
    const std::vector<CellCfg> grid = {
        {0.0, 0, 0.005},
        {240.0, 0, 0.0},
        {240.0, 4, 0.0},
        {480.0, 2, 0.01},
    };
    const QueryTrace trace = chaosTrace(2500);
    auto sweep = [&] {
        return bench::sweepMap(grid, [&](const CellCfg& cell) {
            ClusterConfig cfg = chaosTier(2);
            cfg.faults.crashesPerHour = cell.crashesPerHour;
            cfg.faults.repairSeconds = 1.5;
            cfg.faults.maxFailovers = cell.maxFailovers;
            cfg.hedge.delaySeconds = cell.hedgeDelay;
            return runChaos(cfg, trace);
        });
    };
    const auto [serial, parallel] = atBothThreadCounts(sweep);
    ASSERT_EQ(serial.size(), grid.size());
    ASSERT_EQ(parallel.size(), grid.size());
    for (size_t i = 0; i < grid.size(); i++) {
        const ClusterResult& a = serial[i];
        const ClusterResult& b = parallel[i];
        EXPECT_EQ(a.numCompleted, b.numCompleted);
        EXPECT_EQ(a.numParts, b.numParts);
        EXPECT_EQ(a.faults.crashes, b.faults.crashes);
        EXPECT_EQ(a.faults.lost, b.faults.lost);
        EXPECT_EQ(a.faults.failovers, b.faults.failovers);
        EXPECT_EQ(a.faults.unroutable, b.faults.unroutable);
        EXPECT_EQ(a.faults.hedged, b.faults.hedged);
        EXPECT_EQ(a.faults.hedgeWins, b.faults.hedgeWins);
        EXPECT_EQ(a.faults.hedgeWasted, b.faults.hedgeWasted);
        EXPECT_EQ(a.faults.hedgeSaves, b.faults.hedgeSaves);
        EXPECT_EQ(a.faults.lostQueries, b.faults.lostQueries);
        EXPECT_EQ(a.machineOfQuery, b.machineOfQuery);
        ASSERT_EQ(a.fleetLatencySeconds.count(),
                  b.fleetLatencySeconds.count());
        EXPECT_DOUBLE_EQ(a.fleetLatencySeconds.sum(),
                         b.fleetLatencySeconds.sum());
        EXPECT_DOUBLE_EQ(a.p99Ms(), b.p99Ms());
    }
}

TEST(HedgeProperties, ElasticTierHedgesUnderChaos)
{
    // The elastic tier runs the same loop as the static one, so it
    // hedges too: under crashes and scale events, hedges fire, the
    // three-way books close, and the run is bitwise identical at one
    // and many threads.
    AutoscaleSpec spec;
    spec.cluster = chaosTier(2);
    spec.cluster.faults = hotPlan();
    spec.cluster.faults.faultTolerance = 2;
    spec.cluster.faults.maxFailovers = 2;
    spec.routing.kind = RoutingKind::ShardAware;
    spec.slaMs = 100.0;
    spec.controlIntervalSeconds = 0.5;
    spec.warmupDelaySeconds = 0.25;
    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Reactive;
    policy.minMachines = 2;
    const QueryTrace trace = chaosTrace();
    const std::vector<double> delays = {0.005, 0.02};
    auto sweep = [&] {
        return bench::sweepMap(delays, [&](double delay) {
            AutoscaleSpec cell = spec;
            cell.cluster.hedge.delaySeconds = delay;
            return Autoscaler(cell).run(trace, policy);
        });
    };
    const auto [serial, parallel] = atBothThreadCounts(sweep);
    ASSERT_EQ(serial.size(), delays.size());
    ASSERT_EQ(parallel.size(), delays.size());
    for (size_t i = 0; i < delays.size(); i++) {
        const AutoscaleResult& a = serial[i];
        const AutoscaleResult& b = parallel[i];
        EXPECT_GT(a.faults.hedged, 0u);
        EXPECT_GT(a.faults.crashes, 0u);
        EXPECT_GT(a.scaleEvents.size(), 0u);
        EXPECT_EQ(trace.size(),
                  a.numCompleted + a.overload.droppedFinal + a.faults.lost);
        EXPECT_LE(a.faults.hedgeWins + a.faults.hedgeWasted,
                  2 * a.faults.hedged);
        EXPECT_LE(a.faults.hedgeSaves, a.faults.hedged);

        EXPECT_EQ(a.numCompleted, b.numCompleted);
        EXPECT_EQ(a.numParts, b.numParts);
        EXPECT_EQ(a.faults.crashes, b.faults.crashes);
        EXPECT_EQ(a.faults.lostQueries, b.faults.lostQueries);
        EXPECT_EQ(a.faults.failovers, b.faults.failovers);
        EXPECT_EQ(a.faults.hedged, b.faults.hedged);
        EXPECT_EQ(a.faults.hedgeWins, b.faults.hedgeWins);
        EXPECT_EQ(a.faults.hedgeWasted, b.faults.hedgeWasted);
        EXPECT_EQ(a.faults.hedgeSaves, b.faults.hedgeSaves);
        EXPECT_EQ(a.fleetLatencySeconds.raw(), b.fleetLatencySeconds.raw());
        EXPECT_EQ(a.poweredSecondsPerMachine, b.poweredSecondsPerMachine);
        EXPECT_EQ(a.scaleEvents.size(), b.scaleEvents.size());
    }
}

} // namespace
} // namespace deeprecsys
