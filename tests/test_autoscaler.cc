/**
 * @file
 * Tests for the elastic cluster tier (cluster/autoscaler.hh): query
 * conservation across scale events, connection-draining removal that
 * never drops work, warm-up delay semantics, equivalence with the
 * static cluster simulator when no scale event fires, bitwise
 * determinism across repeated runs and thread counts, an injected
 * router running as the spec-built one, shard-placement
 * re-validation refusing drains that would orphan a table, a pinned
 * sharded elastic day on which a hot shard under the scale-down band
 * still scales the tier up, and the headline property — the reactive
 * policy beats the static peak plan on machine-hours over a 2x
 * diurnal day without violating the SLA.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "base/thread_pool.hh"
#include "bench/bench_common.hh"
#include "cluster/autoscaler.hh"
#include "cluster/cluster_sim.hh"
#include "cluster/model_mix.hh"
#include "loadgen/query_stream.hh"
#include "tests/fixtures.hh"

namespace deeprecsys {
namespace {

/** cpuMachine() with @p memory_bytes of embedding memory. */
SimConfig
memoryMachine(uint64_t memory_bytes)
{
    SimConfig machine = cpuMachine();
    machine.memoryBytes = memory_bytes;
    return machine;
}

/** A test policy that always asks for the same machine count. */
class FixedTarget final : public ScalingPolicy
{
  public:
    explicit FixedTarget(size_t target) : target_(target) {}

    size_t targetMachines(const ScalingSignals&) override { return target_; }

    ScalingPolicyKind kind() const override
    {
        return ScalingPolicyKind::Static;
    }

  private:
    size_t target_;
};

AutoscaleSpec
flatSpec(size_t machines)
{
    AutoscaleSpec spec;
    for (size_t m = 0; m < machines; m++)
        spec.cluster.machines.push_back(cpuMachine());
    spec.routing.kind = RoutingKind::PowerOfTwoChoices;
    spec.slaMs = 100.0;
    spec.controlIntervalSeconds = 0.5;
    spec.warmupDelaySeconds = 0.25;
    return spec;
}

/** A diurnal day's trace plus the spec fields the policies need. */
QueryTrace
diurnalTrace(AutoscaleSpec& spec, double peak_qps, double ratio,
             double day_seconds)
{
    const DiurnalProfile profile(ratio, day_seconds);
    const double mean_qps = peak_qps / (1.0 + profile.swingAmplitude());
    spec.profile = profile;
    spec.meanQps = mean_qps;
    spec.machinesAtPeak = spec.cluster.machines.size();

    LoadSpec load;
    load.qps = mean_qps;
    TraceTemplate tmpl(load);
    const size_t count = static_cast<size_t>(mean_qps * day_seconds);
    tmpl.ensure(count);
    return tmpl.materializeDiurnal(mean_qps, profile, count);
}

/** @p machines machines sharding RMC2's tables, two copies of each,
 *  behind a shard-aware router and a real network. */
AutoscaleSpec
shardedSpec(size_t machines)
{
    const std::vector<EmbeddingTableInfo> tables =
        embeddingTables(modelConfig(ModelId::DlrmRmc2));
    AutoscaleSpec spec = flatSpec(machines);
    PlacementSpec placement_spec;
    placement_spec.strategy = PlacementStrategy::GreedyBySize;
    placement_spec.minReplicas = 2;
    const ShardPlacement placement = ShardPlacement::build(
        tables, std::vector<uint64_t>(machines, 0), placement_spec);
    TableSetSpec table_set;
    table_set.numTables = static_cast<uint32_t>(tables.size());
    table_set.tablesPerQuery = 4;
    spec.cluster.sharding = ShardingConfig{placement, {{table_set}}};
    spec.cluster.network.hopSeconds = 150e-6;
    spec.cluster.network.gigabytesPerSecond = 12.5;
    spec.routing.kind = RoutingKind::ShardAware;
    return spec;
}

void
expectSameAutoscaleResult(const AutoscaleResult& a,
                          const AutoscaleResult& b)
{
    EXPECT_EQ(a.numQueries, b.numQueries);
    EXPECT_EQ(a.numDispatched, b.numDispatched);
    EXPECT_EQ(a.numCompleted, b.numCompleted);
    EXPECT_EQ(a.numParts, b.numParts);
    EXPECT_DOUBLE_EQ(a.machineSeconds, b.machineSeconds);
    EXPECT_DOUBLE_EQ(a.staticMachineSeconds, b.staticMachineSeconds);
    EXPECT_DOUBLE_EQ(a.slaViolationSeconds, b.slaViolationSeconds);
    EXPECT_DOUBLE_EQ(a.spanSeconds, b.spanSeconds);
    EXPECT_DOUBLE_EQ(a.fleetLatencySeconds.sum(),
                     b.fleetLatencySeconds.sum());
    ASSERT_EQ(a.scaleEvents.size(), b.scaleEvents.size());
    for (size_t i = 0; i < a.scaleEvents.size(); i++) {
        EXPECT_DOUBLE_EQ(a.scaleEvents[i].timeSeconds,
                         b.scaleEvents[i].timeSeconds);
        EXPECT_EQ(a.scaleEvents[i].granted, b.scaleEvents[i].granted);
    }
}

TEST(Autoscaler, StaticPolicyNeverScalesAndMatchesBaseline)
{
    AutoscaleSpec spec = flatSpec(4);
    const QueryTrace trace = makeTrace(20000, 6000.0, 5);

    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Static;
    const AutoscaleResult r = Autoscaler(spec).run(trace, policy);

    EXPECT_EQ(r.scaleEvents.size(), 0u);
    EXPECT_EQ(r.minServingMachines, 4u);
    EXPECT_EQ(r.maxServingMachines, 4u);
    // The full tier stays powered for the whole span: elastic burn
    // equals the static baseline exactly.
    EXPECT_DOUBLE_EQ(r.machineSeconds, r.staticMachineSeconds);
    EXPECT_DOUBLE_EQ(r.machineHoursSavedFraction(), 0.0);
    EXPECT_EQ(r.numDispatched, trace.size());
    EXPECT_EQ(r.numCompleted, trace.size());
}

/**
 * Run @p spec's tier through both facades — the elastic one under the
 * static full-tier policy — and expect the same routing decisions,
 * service schedule and statistics.
 */
void
expectElasticMatchesClusterSimulator(const AutoscaleSpec& spec,
                                     const QueryTrace& trace)
{
    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Static;
    const AutoscaleResult elastic = Autoscaler(spec).run(trace, policy);
    const ClusterResult fixed =
        ClusterSimulator(spec.cluster).run(trace, spec.routing);

    EXPECT_TRUE(elastic.scaleEvents.empty());
    EXPECT_EQ(elastic.numDispatched, fixed.numDispatched);
    EXPECT_EQ(elastic.numCompleted, fixed.numCompleted);
    EXPECT_EQ(elastic.numQueries, fixed.numQueries);
    EXPECT_DOUBLE_EQ(elastic.fleetLatencySeconds.sum(),
                     fixed.fleetLatencySeconds.sum());
    EXPECT_DOUBLE_EQ(elastic.p99Ms(), fixed.p99Ms());
    for (size_t m = 0; m < spec.cluster.machines.size(); m++) {
        EXPECT_EQ(elastic.perMachine[m].queriesDispatched,
                  fixed.perMachine[m].queriesDispatched);
        EXPECT_EQ(elastic.perMachine[m].requestsDispatched,
                  fixed.perMachine[m].requestsDispatched);
        // Both tiers integrate busy time by the engine's one clock
        // rule, so the integrals agree to the last bit. (cpuUtilization
        // differs by design: the elastic tier takes it over powered
        // seconds.)
        EXPECT_EQ(elastic.perMachine[m].busyCoreSeconds,
                  fixed.perMachine[m].busyCoreSeconds);
        EXPECT_EQ(elastic.perMachine[m].gpuBusySeconds,
                  fixed.perMachine[m].gpuBusySeconds);
    }
    EXPECT_EQ(elastic.overload.droppedFinal, fixed.overload.droppedFinal);
    EXPECT_EQ(elastic.overload.degraded, fixed.overload.degraded);
    EXPECT_EQ(elastic.faults.hedged, fixed.faults.hedged);
    EXPECT_EQ(elastic.faults.hedgeWins, fixed.faults.hedgeWins);
    EXPECT_EQ(elastic.faults.hedgeWasted, fixed.faults.hedgeWasted);
}

TEST(Autoscaler, StaticFullTierMatchesClusterSimulatorExactly)
{
    // With no scale event the elastic driver must be the cluster
    // simulator: same routing decisions, same service schedule, same
    // statistics bit-for-bit (control ticks shift event sequence
    // numbers but never reorder equal-time service completions).
    AutoscaleSpec spec = flatSpec(5);
    expectElasticMatchesClusterSimulator(spec,
                                         makeTrace(15000, 7500.0, 23));

    // The same on a sharded, hedged, deadline-admitted tier: fan-out
    // parts, two-stage joins, sheds, degrades and hedge races.
    AutoscaleSpec sharded = shardedSpec(5);
    sharded.cluster.overload.admission = AdmissionKind::Deadline;
    sharded.cluster.overload.deadlineSeconds = 0.05;
    sharded.cluster.overload.degrade = true;
    sharded.cluster.hedge.delaySeconds = 0.01;
    const QueryTrace trace = makeTrace(15000, 9000.0, 23);
    const ClusterResult fixed =
        ClusterSimulator(sharded.cluster).run(trace, sharded.routing);
    ASSERT_GT(fixed.faults.hedged, 0u);
    ASSERT_GT(fixed.overload.droppedFinal, 0u);
    ASSERT_GT(fixed.meanFanout, 1.0);
    expectElasticMatchesClusterSimulator(sharded, trace);
}

TEST(Autoscaler, ColocatedJsqRoutesAsClusterSimulator)
{
    // JSQ balances a two-model mix on each machine's in-flight and
    // queued work. The elastic tier keeps the same view as the static
    // tier, so at a fixed full tier both place every query on the
    // same machine.
    std::vector<ModelMixEntry> mix;
    for (auto [id, share] : {std::pair{ModelId::DlrmRmc2, 0.5},
                             std::pair{ModelId::WideAndDeep, 0.5}}) {
        ModelMixEntry entry = makeMixEntry(id, share);
        entry.policy.perRequestBatch = 256;
        mix.push_back(entry);
    }
    AutoscaleSpec spec = flatSpec(0);
    for (size_t m = 0; m < 3; m++)
        spec.cluster.machines.push_back(
            colocatedMachine(mix, CpuPlatform::skylake()));
    spec.cluster.modelMix = mix;
    spec.routing.kind = RoutingKind::JoinShortestQueue;

    LoadSpec load;
    load.arrivalSeed = 0x505;
    load.sizeSeed = 0x506;
    MixedTraceTemplate mixed(load, mixFractions(mix));
    mixed.ensure(4000);
    const QueryTrace trace = mixed.materialize(2200.0, 4000);
    expectElasticMatchesClusterSimulator(spec, trace);
}

TEST(Autoscaler, ConservationAcrossScaleEvents)
{
    AutoscaleSpec spec = flatSpec(6);
    QueryTrace trace = diurnalTrace(spec, 10000.0, 2.0, 20.0);

    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Reactive;
    const AutoscaleResult r = Autoscaler(spec).run(trace, policy);

    // Machines were added and removed mid-run...
    EXPECT_GT(r.scaleEvents.size(), 0u);
    EXPECT_LT(r.minServingMachines, r.maxServingMachines);
    // ...yet every query completed exactly once and none was dropped.
    EXPECT_EQ(r.numDispatched, trace.size());
    EXPECT_EQ(r.numCompleted, trace.size());
    uint64_t completed = 0;
    for (const MachineStats& m : r.perMachine)
        completed += m.queriesCompleted;
    EXPECT_EQ(completed, trace.size());
}

TEST(Autoscaler, DrainFinishesInFlightWorkAndPowersOff)
{
    // Scale the tier from 6 to 2 machines mid-run: the drained
    // machines finish their queues (nothing dropped), then power off
    // (billed less than the span).
    AutoscaleSpec spec = flatSpec(6);
    const QueryTrace trace = makeTrace(15000, 3000.0, 5);

    FixedTarget policy(2);
    const AutoscaleResult r = Autoscaler(spec).run(trace, policy);

    EXPECT_EQ(r.numCompleted, trace.size());
    EXPECT_EQ(r.minServingMachines, 2u);
    EXPECT_LT(r.machineSeconds, r.staticMachineSeconds);
    // The surviving machines stay powered the whole span; the
    // drained ones power off early but only after finishing work.
    EXPECT_DOUBLE_EQ(r.poweredSecondsPerMachine[0], r.spanSeconds);
    for (size_t m = 2; m < 6; m++)
        EXPECT_LT(r.poweredSecondsPerMachine[m],
                  0.5 * r.spanSeconds);
}

TEST(Autoscaler, WarmupDelayKeepsNewMachinesOutOfRouting)
{
    // One machine accepts at trace start; the policy wants the full
    // tier but the warm-up delay exceeds the trace, so the added
    // machines are billed yet never serve a query.
    AutoscaleSpec spec = flatSpec(3);
    spec.initialMachines = 1;
    spec.warmupDelaySeconds = 1e6;
    const QueryTrace trace = makeTrace(4000, 1500.0, 5);

    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Static;
    const AutoscaleResult r = Autoscaler(spec).run(trace, policy);

    EXPECT_EQ(r.numCompleted, trace.size());
    EXPECT_EQ(r.perMachine[0].queriesDispatched, trace.size());
    for (size_t m = 1; m < 3; m++) {
        EXPECT_EQ(r.perMachine[m].queriesDispatched, 0u);
        EXPECT_EQ(r.perMachine[m].requestsDispatched, 0u);
        // Powered from the first control tick, though: warm-up time
        // is paid for.
        EXPECT_GT(r.poweredSecondsPerMachine[m], 0.0);
    }
}

TEST(Autoscaler, WarmedUpMachineJoinsAndServes)
{
    AutoscaleSpec spec = flatSpec(3);
    spec.initialMachines = 1;
    spec.warmupDelaySeconds = 0.25;
    const QueryTrace trace = makeTrace(20000, 4000.0, 5);

    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Static;   // wants the full tier
    const AutoscaleResult r = Autoscaler(spec).run(trace, policy);

    EXPECT_EQ(r.numCompleted, trace.size());
    // After the first tick + warm-up, the added machines serve.
    for (size_t m = 1; m < 3; m++)
        EXPECT_GT(r.perMachine[m].queriesDispatched, 0u);
}

TEST(Autoscaler, DeterministicAcrossRepeatedRunsAndThreadCounts)
{
    AutoscaleSpec spec = flatSpec(5);
    QueryTrace trace = diurnalTrace(spec, 8000.0, 2.0, 15.0);
    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Reactive;
    const Autoscaler scaler(spec);

    const AutoscaleResult first = scaler.run(trace, policy);
    const AutoscaleResult again = scaler.run(trace, policy);
    expectSameAutoscaleResult(first, again);

    // A single run never uses the pool, but the surrounding sweeps
    // do; pin the whole path at 1 vs 8 threads.
    ThreadPool::setSharedThreads(1);
    const AutoscaleResult serial = scaler.run(trace, policy);
    ThreadPool::setSharedThreads(8);
    const AutoscaleResult parallel = scaler.run(trace, policy);
    ThreadPool::setSharedThreads(1);
    expectSameAutoscaleResult(serial, parallel);
    expectSameAutoscaleResult(first, serial);
}

TEST(Autoscaler, InjectedRouterRunsAsTheSpecBuiltOne)
{
    // Routing through a caller's router is the same run as routing
    // through the one the spec builds: latencies, machine books and
    // the scale history, bit for bit.
    AutoscaleSpec spec = shardedSpec(6);
    const QueryTrace trace = diurnalTrace(spec, 6000.0, 2.0, 8.0);
    ScalingPolicySpec policy_spec;
    policy_spec.kind = ScalingPolicyKind::Reactive;
    const Autoscaler scaler(spec);
    const AutoscaleResult built = scaler.run(trace, policy_spec);

    const std::unique_ptr<RoutingPolicy> router =
        makeRoutingPolicy(spec.routing, &*spec.cluster.sharding);
    const std::unique_ptr<ScalingPolicy> policy =
        makeScalingPolicy(policy_spec, spec);
    const AutoscaleResult injected = scaler.run(trace, *router, *policy);

    ASSERT_GT(built.scaleEvents.size(), 0u);
    ASSERT_GT(built.numParts, built.numDispatched);
    expectSameAutoscaleResult(built, injected);
    EXPECT_EQ(built.fleetLatencySeconds.raw(),
              injected.fleetLatencySeconds.raw());
    EXPECT_EQ(built.poweredSecondsPerMachine,
              injected.poweredSecondsPerMachine);
    EXPECT_EQ(built.machineSeconds, injected.machineSeconds);
    ASSERT_EQ(built.perMachine.size(), injected.perMachine.size());
    for (size_t m = 0; m < built.perMachine.size(); m++) {
        EXPECT_EQ(built.perMachine[m].queriesDispatched,
                  injected.perMachine[m].queriesDispatched);
        EXPECT_EQ(built.perMachine[m].busyCoreSeconds,
                  injected.perMachine[m].busyCoreSeconds);
    }

    // And the run really routes through the injected router: another
    // kind splits the same trace differently.
    const std::unique_ptr<RoutingPolicy> round_robin =
        makeRoutingPolicy(RoutingSpec{RoutingKind::RoundRobin});
    const std::unique_ptr<ScalingPolicy> again =
        makeScalingPolicy(policy_spec, spec);
    const AutoscaleResult other = scaler.run(trace, *round_robin, *again);
    EXPECT_NE(other.fleetLatencySeconds.raw(),
              built.fleetLatencySeconds.raw());
}

TEST(Autoscaler, ReactiveBeatsStaticOverTwoXDiurnalDay)
{
    // The headline property at test scale: over a 2x peak-to-trough
    // day, the reactive policy must save machine-hours against the
    // static peak tier while holding the SLA.
    AutoscaleSpec spec = flatSpec(8);
    QueryTrace trace = diurnalTrace(spec, 13000.0, 2.0, 30.0);

    ScalingPolicySpec static_policy;
    static_policy.kind = ScalingPolicyKind::Static;
    const AutoscaleResult fixed =
        Autoscaler(spec).run(trace, static_policy);

    ScalingPolicySpec reactive;
    reactive.kind = ScalingPolicyKind::Reactive;
    const AutoscaleResult elastic =
        Autoscaler(spec).run(trace, reactive);

    EXPECT_EQ(elastic.numCompleted, trace.size());
    EXPECT_DOUBLE_EQ(fixed.machineHoursSavedFraction(), 0.0);
    EXPECT_GT(elastic.machineHoursSavedFraction(), 0.10);
    EXPECT_DOUBLE_EQ(elastic.slaViolationMinutes(), 0.0);
    // Whole-day tail stays within the SLA for both tiers.
    EXPECT_LE(elastic.p99Ms(), spec.slaMs);
    EXPECT_LE(fixed.p99Ms(), spec.slaMs);
}

TEST(Autoscaler, PredictivePreWarmsAheadOfTheRamp)
{
    AutoscaleSpec spec = flatSpec(8);
    QueryTrace trace = diurnalTrace(spec, 13000.0, 2.0, 30.0);

    ScalingPolicySpec predictive;
    predictive.kind = ScalingPolicyKind::Predictive;
    const AutoscaleResult r = Autoscaler(spec).run(trace, predictive);

    EXPECT_EQ(r.numCompleted, trace.size());
    EXPECT_GT(r.machineHoursSavedFraction(), 0.05);
    EXPECT_DOUBLE_EQ(r.slaViolationMinutes(), 0.0);
    EXPECT_LE(r.p99Ms(), spec.slaMs);
    EXPECT_LT(r.minServingMachines, 8u);
}

TEST(Autoscaler, ShardRevalidationRefusesOrphaningDrains)
{
    // Round-robin placement with no replication: every machine holds
    // the sole copy of some tables, so no machine may drain and the
    // tier must refuse the scale-down wholesale.
    const ModelConfig model = modelConfig(ModelId::DlrmRmc2);
    const std::vector<EmbeddingTableInfo> tables =
        embeddingTables(model);
    uint64_t total = 0;
    for (const EmbeddingTableInfo& t : tables)
        total += t.bytes;

    AutoscaleSpec spec;
    const size_t n = 4;
    for (size_t m = 0; m < n; m++)
        spec.cluster.machines.push_back(memoryMachine(total / 2));
    PlacementSpec placement_spec;
    placement_spec.strategy = PlacementStrategy::GreedyBySize;
    const ShardPlacement placement = ShardPlacement::build(
        tables, machineMemoryBudgets(spec.cluster.machines),
        placement_spec);
    ASSERT_TRUE(placement.feasible());
    TableSetSpec table_set;
    table_set.numTables = static_cast<uint32_t>(tables.size());
    table_set.tablesPerQuery = 4;
    spec.cluster.sharding = ShardingConfig{placement, {{table_set}}};
    spec.routing.kind = RoutingKind::ShardAware;
    spec.slaMs = 100.0;
    spec.controlIntervalSeconds = 0.5;
    spec.warmupDelaySeconds = 0.25;

    const QueryTrace trace = makeTrace(6000, 2000.0, 5);
    FixedTarget policy(1);    // asks for a 1-machine tier
    const AutoscaleResult r = Autoscaler(spec).run(trace, policy);

    // Every drain was refused: each machine holds tables nobody else
    // replicates, so the serving set never shrank and no query was
    // lost or unroutable.
    EXPECT_EQ(r.minServingMachines, n);
    EXPECT_EQ(r.numCompleted, trace.size());
    for (const ScaleEvent& ev : r.scaleEvents) {
        EXPECT_EQ(ev.target, 1u);
        EXPECT_EQ(ev.granted, n);
    }
    EXPECT_GT(r.scaleEvents.size(), 0u);
}

TEST(Autoscaler, ShardDrainAllowedUnderFullReplication)
{
    // With every table replicated on every machine, drains pass
    // re-validation and the tier really shrinks.
    const ModelConfig model = modelConfig(ModelId::DlrmRmc2);
    const std::vector<EmbeddingTableInfo> tables =
        embeddingTables(model);

    AutoscaleSpec spec;
    const size_t n = 4;
    for (size_t m = 0; m < n; m++)
        spec.cluster.machines.push_back(memoryMachine(0));
    PlacementSpec placement_spec;
    placement_spec.strategy = PlacementStrategy::HotColdReplicated;
    const ShardPlacement placement = ShardPlacement::build(
        tables, std::vector<uint64_t>(n, 0), placement_spec);
    ASSERT_TRUE(placement.feasible());
    TableSetSpec table_set;
    table_set.numTables = static_cast<uint32_t>(tables.size());
    table_set.tablesPerQuery = 4;
    spec.cluster.sharding = ShardingConfig{placement, {{table_set}}};
    spec.routing.kind = RoutingKind::ShardAware;
    spec.slaMs = 100.0;
    spec.controlIntervalSeconds = 0.5;
    spec.warmupDelaySeconds = 0.25;

    const QueryTrace trace = makeTrace(6000, 2000.0, 5);
    FixedTarget policy(2);
    const AutoscaleResult r = Autoscaler(spec).run(trace, policy);

    EXPECT_EQ(r.minServingMachines, 2u);
    EXPECT_EQ(r.numCompleted, trace.size());
}

/**
 * The pinned sharded day: six machines with 2/3/4 GB budgets, two
 * replicas per table where they fit, five accepting at the start, over
 * a 3x diurnal day peaking at 6,000 QPS. Fills @p spec and @p trace.
 */
void
shardedDay(AutoscaleSpec& spec, QueryTrace& trace)
{
    const std::vector<EmbeddingTableInfo> tables =
        embeddingTables(modelConfig(ModelId::DlrmRmc2));
    spec = flatSpec(0);
    for (size_t m = 0; m < 6; m++)
        spec.cluster.machines.push_back(
            memoryMachine((2 + m % 3) * 1'000'000'000ULL));
    const ShardPlacement placement = ShardPlacement::build(
        tables, machineMemoryBudgets(spec.cluster.machines),
        PlacementSpec{.minReplicas = 2});
    ASSERT_TRUE(placement.feasible());
    spec.cluster.sharding = ShardingConfig{
        placement,
        {{TableSetSpec{.numTables = static_cast<uint32_t>(tables.size()),
                       .tablesPerQuery = 4}}}};
    spec.cluster.network.hopSeconds = 150e-6;
    spec.cluster.network.gigabytesPerSecond = 12.5;
    spec.routing.kind = RoutingKind::ShardAware;
    spec.initialMachines = 5;
    trace = diurnalTrace(spec, 6000.0, 3.0, 20.0);
}

TEST(AutoscalePin, ShardedElasticDayScalesAndServesTheSame)
{
    // The reactive policy's first scale-downs pass drain
    // re-validation and later ones are refused. Pins every scale
    // decision and every latency bit.
    AutoscaleSpec spec;
    QueryTrace trace;
    shardedDay(spec, trace);
    ScalingPolicySpec reactive;
    reactive.kind = ScalingPolicyKind::Reactive;
    const AutoscaleResult r = Autoscaler(spec).run(trace, reactive);

    Fnv1a h;
    bool refused_drain = false;
    for (const ScaleEvent& ev : r.scaleEvents) {
        h.word(ev.target);
        h.word(ev.granted);
        refused_drain |= ev.granted > ev.target;
    }
    for (double latency : r.fleetLatencySeconds.raw())
        h.word(std::bit_cast<uint64_t>(latency));
    EXPECT_TRUE(refused_drain);
    EXPECT_EQ(r.numCompleted, trace.size());
    EXPECT_EQ(h.value(), 0x73a81edb986ec1c6ULL);
}

TEST(AutoscalePin, HotShardUnderTheScaleDownBandStillScalesUp)
{
    // On the sharded day a hot shard drives a window's tail past
    // 0.8 x SLA while the tier's mean utilization sits under the
    // scale-down band. The reactive policy must answer the tail with
    // a scale-up: a policy that gated growth on mean utilization let
    // a window tail reach about 5 s here.
    AutoscaleSpec spec;
    QueryTrace trace;
    shardedDay(spec, trace);
    ScalingPolicySpec reactive;
    reactive.kind = ScalingPolicyKind::Reactive;
    const AutoscaleResult r = Autoscaler(spec).run(trace, reactive);

    const size_t full_tier = spec.cluster.machines.size();
    size_t scaled_up = 0;
    for (const AutoscaleWindow& w : r.timeline) {
        EXPECT_LE(w.tailMs, 1000.0) << "window ending " << w.endSeconds;
        if (w.tailMs <= 0.8 * spec.slaMs ||
            w.utilization >= reactive.downUtilization)
            continue;
        // Hot under the band: grow, unless the full tier already serves.
        const auto ev = std::find_if(
            r.scaleEvents.begin(), r.scaleEvents.end(),
            [&](const ScaleEvent& e) {
                return e.timeSeconds == w.endSeconds;
            });
        if (ev == r.scaleEvents.end()) {
            EXPECT_EQ(w.servingMachines, full_tier)
                << "window ending " << w.endSeconds;
            continue;
        }
        EXPECT_GT(ev->target, ev->servingBefore)
            << "window ending " << w.endSeconds;
        scaled_up += ev->target > ev->servingBefore;
    }
    EXPECT_GT(scaled_up, 0u);
}

TEST(ScalingPolicies, FactoryBuildsEveryKindWithNames)
{
    AutoscaleSpec spec = flatSpec(2);
    spec.meanQps = 1000.0;
    spec.machinesAtPeak = 2;
    for (ScalingPolicyKind kind : allScalingPolicyKinds()) {
        ScalingPolicySpec policy;
        policy.kind = kind;
        const std::unique_ptr<ScalingPolicy> built =
            makeScalingPolicy(policy, spec);
        ASSERT_NE(built, nullptr);
        EXPECT_EQ(built->kind(), kind);
        EXPECT_STRNE(built->name(), "unknown");
    }
}

// ------------------------------------------- config errors exit cleanly

// A bad elastic-tier spec is a user error: it exits with status 1 and
// a message (drs_fatal), it does not abort like a broken invariant.

TEST(AutoscalerConfigDeath, NoMachinesIsAConfigError)
{
    EXPECT_EXIT(Autoscaler{flatSpec(0)}, ::testing::ExitedWithCode(1),
                "elastic tier needs machines");
}

TEST(AutoscalerConfigDeath, NonPositiveControlIntervalIsAConfigError)
{
    AutoscaleSpec spec = flatSpec(2);
    spec.controlIntervalSeconds = 0.0;
    EXPECT_EXIT(Autoscaler{spec}, ::testing::ExitedWithCode(1),
                "control interval must be positive");
}

TEST(AutoscalerConfigDeath, OutOfRangeSlaIsAConfigError)
{
    // Refused at construction, not at the first control tick that
    // reads a tail (an abort) or as every window violating.
    AutoscaleSpec spec = flatSpec(2);
    spec.percentile = 150.0;
    EXPECT_EXIT(Autoscaler{spec}, ::testing::ExitedWithCode(1),
                "SLA percentile 150 is outside \\[0, 100\\]");
    spec = flatSpec(2);
    spec.slaMs = 0.0;
    EXPECT_EXIT(Autoscaler{spec}, ::testing::ExitedWithCode(1),
                "SLA target must be positive");
}

TEST(AutoscalerConfigDeath, NegativeWarmupIsAConfigError)
{
    AutoscaleSpec spec = flatSpec(2);
    spec.warmupDelaySeconds = -0.25;
    EXPECT_EXIT(Autoscaler{spec}, ::testing::ExitedWithCode(1),
                "warm-up delay cannot be negative");
}

TEST(AutoscalerConfigDeath, MinMachinesAboveTheTierIsAConfigError)
{
    // A floor above the tier cannot be met, and std::clamp with a
    // floor above its ceiling is undefined (it aborts under
    // _GLIBCXX_ASSERTIONS and returns the ceiling in Release).
    const AutoscaleSpec spec = flatSpec(2);
    for (ScalingPolicyKind kind : allScalingPolicyKinds()) {
        ScalingPolicySpec policy;
        policy.kind = kind;
        policy.minMachines = 3;
        EXPECT_EXIT(makeScalingPolicy(policy, spec),
                    ::testing::ExitedWithCode(1),
                    "scaling floor of 3 machines exceeds the tier's 2")
            << scalingPolicyName(kind);
    }
}

TEST(AutoscalerConfigDeath, InitialMachinesAboveTheTierIsAConfigError)
{
    AutoscaleSpec spec = flatSpec(2);
    spec.initialMachines = 3;
    EXPECT_EXIT(Autoscaler{spec}, ::testing::ExitedWithCode(1),
                "initial machines exceed the tier");
}

TEST(AutoscalerConfigDeath, MachineMissingAMixBindingIsAConfigError)
{
    const std::vector<ModelMixEntry> mix = {
        makeMixEntry(ModelId::DlrmRmc2, 0.5),
        makeMixEntry(ModelId::WideAndDeep, 0.5),
    };
    AutoscaleSpec spec = flatSpec(0);
    spec.cluster.machines = {
        colocatedMachine(mix, CpuPlatform::skylake()),
        colocatedMachine({mix[0]}, CpuPlatform::skylake())};
    spec.cluster.modelMix = mix;
    EXPECT_EXIT(Autoscaler{spec}, ::testing::ExitedWithCode(1),
                "elastic tier: machine 1 binds 1 of the mix's 2 models");
}

TEST(AutoscalerConfigDeath, ReactiveBandNotBracketingTheTargetIsAConfigError)
{
    const AutoscaleSpec spec = flatSpec(2);
    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Reactive;
    policy.downUtilization = 0.7;    // above the 0.65 target
    EXPECT_EXIT(makeScalingPolicy(policy, spec),
                ::testing::ExitedWithCode(1),
                "utilization band must bracket the target");
    policy.downUtilization = 0.4;
    policy.upUtilization = 0.6;      // below the target
    EXPECT_EXIT(makeScalingPolicy(policy, spec),
                ::testing::ExitedWithCode(1),
                "utilization band must bracket the target");
}

TEST(AutoscalerConfigDeath, ReactiveLatencyFractionOutsideUnitIsAConfigError)
{
    const AutoscaleSpec spec = flatSpec(2);
    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Reactive;
    policy.downLatencyFraction = std::nan("");
    EXPECT_EXIT(makeScalingPolicy(policy, spec),
                ::testing::ExitedWithCode(1),
                "scale-down latency fraction nan is not in");
    policy.downLatencyFraction = 0.0;
    EXPECT_EXIT(makeScalingPolicy(policy, spec),
                ::testing::ExitedWithCode(1),
                "scale-down latency fraction 0 is not in");
    policy.downLatencyFraction = -0.5;
    EXPECT_EXIT(makeScalingPolicy(policy, spec),
                ::testing::ExitedWithCode(1),
                "scale-down latency fraction -0.5 is not in");
    policy.downLatencyFraction = 1.5;
    EXPECT_EXIT(makeScalingPolicy(policy, spec),
                ::testing::ExitedWithCode(1),
                "scale-down latency fraction 1.5 is not in");
    // The edge of the interval is legal.
    policy.downLatencyFraction = 1.0;
    EXPECT_NE(makeScalingPolicy(policy, spec), nullptr);
}

TEST(AutoscalerConfigDeath, PredictiveWithoutMeanQpsIsAConfigError)
{
    AutoscaleSpec spec = flatSpec(2);
    spec.machinesAtPeak = 2;
    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Predictive;
    EXPECT_EXIT(makeScalingPolicy(policy, spec),
                ::testing::ExitedWithCode(1),
                "predictive scaling needs AutoscaleSpec::meanQps");
}

TEST(AutoscalerConfigDeath, PredictiveWithoutPeakMachinesIsAConfigError)
{
    AutoscaleSpec spec = flatSpec(2);
    spec.meanQps = 1000.0;
    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Predictive;
    EXPECT_EXIT(makeScalingPolicy(policy, spec),
                ::testing::ExitedWithCode(1),
                "predictive scaling needs AutoscaleSpec::machinesAtPeak");
}

} // namespace
} // namespace deeprecsys
