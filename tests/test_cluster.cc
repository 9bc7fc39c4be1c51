/**
 * @file
 * Tests for the cluster simulator and the cluster-level max-QPS
 * search: query conservation, determinism, and the load-balancing
 * properties the routing policies are built to deliver.
 */

#include <gtest/gtest.h>

#include <set>

#include "cluster/cluster_qps_search.hh"
#include "cluster/cluster_sim.hh"
#include "cluster/model_mix.hh"
#include "loadgen/query_stream.hh"

namespace deeprecsys {
namespace {

SimConfig
cpuMachine(double slowdown = 1.0, size_t batch = 256)
{
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc1);
    SchedulerPolicy policy;
    policy.perRequestBatch = batch;
    SimConfig machine{CpuCostModel(profile, CpuPlatform::skylake()),
                      std::nullopt, policy};
    machine.slowdown = slowdown;
    return machine;
}

SimConfig
gpuMachine(uint32_t threshold = 64, double slowdown = 1.0)
{
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc1);
    SchedulerPolicy policy;
    policy.perRequestBatch = 256;
    policy.gpuEnabled = true;
    policy.gpuQueryThreshold = threshold;
    SimConfig machine{CpuCostModel(profile, CpuPlatform::skylake()),
                      GpuCostModel(profile, GpuPlatform::gtx1080Ti()),
                      policy};
    machine.slowdown = slowdown;
    return machine;
}

ClusterConfig
homogeneousCluster(size_t n)
{
    ClusterConfig cfg;
    for (size_t m = 0; m < n; m++)
        cfg.machines.push_back(cpuMachine());
    return cfg;
}

/** Alternating nominal/slow machines: heterogeneity JSQ can exploit. */
ClusterConfig
heterogeneousCluster(size_t n)
{
    ClusterConfig cfg;
    for (size_t m = 0; m < n; m++)
        cfg.machines.push_back(cpuMachine(m % 2 == 0 ? 1.0 : 1.4));
    return cfg;
}

QueryTrace
globalTrace(size_t count, double qps)
{
    LoadSpec load;
    load.qps = qps;
    QueryStream stream(load);
    return stream.generate(count);
}

TEST(ClusterSim, EveryQueryCompletesExactlyOnce)
{
    const QueryTrace trace = globalTrace(3000, 10000.0);
    const ClusterSimulator sim(homogeneousCluster(8));
    for (RoutingKind kind : allRoutingKinds()) {
        RoutingSpec spec;
        spec.kind = kind;
        const ClusterResult r = sim.run(trace, spec);
        EXPECT_EQ(r.numDispatched, trace.size()) << routingKindName(kind);
        EXPECT_EQ(r.numCompleted, trace.size()) << routingKindName(kind);
        uint64_t dispatched = 0;
        uint64_t completed = 0;
        for (const MachineStats& m : r.perMachine) {
            dispatched += m.queriesDispatched;
            completed += m.queriesCompleted;
        }
        EXPECT_EQ(dispatched, trace.size()) << routingKindName(kind);
        EXPECT_EQ(completed, trace.size()) << routingKindName(kind);
        ASSERT_EQ(r.machineOfQuery.size(), trace.size());
        for (uint32_t m : r.machineOfQuery)
            EXPECT_LT(m, 8u);
    }
}

TEST(ClusterSim, DeterministicGivenSeeds)
{
    const QueryTrace trace = globalTrace(2000, 9000.0);
    const ClusterSimulator sim(heterogeneousCluster(6));
    RoutingSpec spec;
    spec.kind = RoutingKind::PowerOfTwoChoices;
    spec.seed = 31337;
    const ClusterResult a = sim.run(trace, spec);
    const ClusterResult b = sim.run(trace, spec);
    EXPECT_DOUBLE_EQ(a.p99Ms(), b.p99Ms());
    EXPECT_EQ(a.numCompleted, b.numCompleted);
    EXPECT_EQ(a.machineOfQuery, b.machineOfQuery);
}

TEST(ClusterSim, RoutingSeedChangesRandomPolicies)
{
    const QueryTrace trace = globalTrace(2000, 9000.0);
    const ClusterSimulator sim(homogeneousCluster(6));
    RoutingSpec a;
    a.kind = RoutingKind::UniformRandom;
    a.seed = 1;
    RoutingSpec b = a;
    b.seed = 2;
    EXPECT_NE(sim.run(trace, a).machineOfQuery,
              sim.run(trace, b).machineOfQuery);
}

TEST(ClusterSim, RoundRobinSpreadsEvenly)
{
    const QueryTrace trace = globalTrace(4000, 8000.0);
    const ClusterSimulator sim(homogeneousCluster(8));
    const ClusterResult r = sim.run(trace, {RoutingKind::RoundRobin, 0, 0});
    for (const MachineStats& m : r.perMachine)
        EXPECT_EQ(m.queriesDispatched, trace.size() / 8);
}

TEST(ClusterSim, QueueAwarePoliciesBeatRandomOnTail)
{
    // Skewed (production) query sizes on a heterogeneous cluster at
    // ~75% utilization: queue-aware routing keeps the tail down while
    // uniform-random piles work onto busy or slow machines.
    const QueryTrace trace = globalTrace(8000, 10000.0);
    const ClusterSimulator sim(heterogeneousCluster(8));

    const double random =
        sim.run(trace, {RoutingKind::UniformRandom, 5, 0}).p99Ms();
    const double jsq =
        sim.run(trace, {RoutingKind::JoinShortestQueue, 0, 0}).p99Ms();
    const double po2c =
        sim.run(trace, {RoutingKind::PowerOfTwoChoices, 5, 0}).p99Ms();

    EXPECT_LT(jsq, random);
    EXPECT_LT(po2c, random);
}

TEST(ClusterSim, SizeAwareSendsLargeQueriesOnlyToGpuMachines)
{
    constexpr uint32_t threshold = 128;
    ClusterConfig cfg;
    std::set<uint32_t> gpu_machines;
    for (size_t m = 0; m < 8; m++) {
        if (m < 2) {
            cfg.machines.push_back(gpuMachine(1));
            gpu_machines.insert(static_cast<uint32_t>(m));
        } else {
            cfg.machines.push_back(cpuMachine());
        }
    }

    const QueryTrace trace = globalTrace(4000, 8000.0);
    RoutingSpec spec;
    spec.kind = RoutingKind::SizeAware;
    spec.sizeThreshold = threshold;
    const ClusterResult r = ClusterSimulator(cfg).run(trace, spec);

    for (size_t i = 0; i < trace.size(); i++) {
        if (trace[i].size >= threshold) {
            EXPECT_TRUE(gpu_machines.count(r.machineOfQuery[i]))
                << "large query " << i << " routed to CPU machine "
                << r.machineOfQuery[i];
        } else {
            EXPECT_FALSE(gpu_machines.count(r.machineOfQuery[i]))
                << "small query " << i << " routed to GPU machine";
        }
    }
}

TEST(ClusterSim, WarmupExcludedFromStats)
{
    const QueryTrace trace = globalTrace(2000, 6000.0);
    const ClusterResult r = ClusterSimulator(homogeneousCluster(4))
                                .run(trace, {RoutingKind::RoundRobin, 0, 0});
    EXPECT_EQ(warmupCount(trace.size()), 100u);
    EXPECT_EQ(r.numQueries, trace.size() - 100);
    EXPECT_EQ(r.numCompleted, trace.size());
}

TEST(ClusterSim, EmptyTraceSafe)
{
    const ClusterSimulator sim(homogeneousCluster(3));
    const ClusterResult r =
        sim.run(QueryTrace{}, {RoutingKind::RoundRobin, 0, 0});
    EXPECT_EQ(r.numDispatched, 0u);
    EXPECT_EQ(r.numCompleted, 0u);
    EXPECT_EQ(r.perMachine.size(), 3u);
}

TEST(ClusterSim, UtilizationReported)
{
    const QueryTrace trace = globalTrace(3000, 9000.0);
    const ClusterSimulator sim(homogeneousCluster(6));
    const ClusterResult r =
        sim.run(trace, {RoutingKind::PowerOfTwoChoices, 1, 0});
    EXPECT_GT(r.meanCpuUtilization, 0.0);
    EXPECT_LE(r.meanCpuUtilization, 1.0);
    for (const MachineStats& m : r.perMachine) {
        EXPECT_GT(m.cpuUtilization, 0.0);
        EXPECT_LE(m.cpuUtilization, 1.0);
    }
}

TEST(ClusterQps, FeasibleSlaGivesPositiveQps)
{
    ClusterQpsSpec spec;
    spec.slaMs = 100.0;
    spec.numQueries = 2000;
    const ClusterQpsResult r =
        findClusterMaxQps(homogeneousCluster(4), spec);
    EXPECT_GT(r.maxQps, 1000.0);
    EXPECT_GT(r.evaluations, 2u);
    EXPECT_LE(r.atMax.tailMs(spec.percentile), spec.slaMs);
}

TEST(ClusterQps, ImpossibleSlaGivesZero)
{
    ClusterQpsSpec spec;
    spec.slaMs = 0.01;
    spec.numQueries = 1000;
    const ClusterQpsResult r =
        findClusterMaxQps(homogeneousCluster(2), spec);
    EXPECT_DOUBLE_EQ(r.maxQps, 0.0);
}

TEST(ClusterQps, MoreMachinesSustainMoreLoad)
{
    ClusterQpsSpec spec;
    spec.slaMs = 100.0;
    spec.numQueries = 2500;
    const double small =
        findClusterMaxQps(homogeneousCluster(2), spec).maxQps;
    const double large =
        findClusterMaxQps(homogeneousCluster(6), spec).maxQps;
    EXPECT_GT(large, 2.0 * small);
}

TEST(ClusterQps, DeterministicAcrossCalls)
{
    ClusterQpsSpec spec;
    spec.slaMs = 80.0;
    spec.numQueries = 1500;
    const double a = findClusterMaxQps(homogeneousCluster(3), spec).maxQps;
    const double b = findClusterMaxQps(homogeneousCluster(3), spec).maxQps;
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(ClusterConfigDeath, MachineMissingAMixBindingIsAConfigError)
{
    // Machine 0 binds RMC2 only; the mix also sends it WnD queries,
    // which any routing policy may place there.
    const std::vector<ModelMixEntry> mix = {
        makeMixEntry(ModelId::DlrmRmc2, 0.5),
        makeMixEntry(ModelId::WideAndDeep, 0.5),
    };
    ClusterConfig cfg;
    cfg.machines = {colocatedMachine({mix[0]}, CpuPlatform::skylake()),
                    colocatedMachine(mix, CpuPlatform::skylake())};
    cfg.modelMix = mix;
    EXPECT_EXIT(ClusterSimulator{cfg}, ::testing::ExitedWithCode(1),
                "cluster: machine 0 binds 1 of the mix's 2 models");
}

TEST(ClusterConfigDeath, MachineWithoutABindingIsAConfigError)
{
    ClusterConfig cfg;
    cfg.machines = {cpuMachine()};
    cfg.machines[0].bindings.clear();
    EXPECT_EXIT(validateClusterConfig(cfg, "cluster"),
                ::testing::ExitedWithCode(1),
                "a machine needs at least one model binding");
}

TEST(ClusterConfigDeath, BindingOnAnotherCoreCountIsAConfigError)
{
    // Every binding prices the machine's one core pool; a binding
    // calibrated for a 40-core Broadwell on a 28-core Skylake is not
    // that pool.
    ClusterConfig cfg;
    cfg.machines = {cpuMachine()};
    cfg.machines[0].bindings.push_back(
        {CpuCostModel(ModelProfile::forModel(ModelId::WideAndDeep),
                      CpuPlatform::broadwell()),
         std::nullopt, SchedulerPolicy{}});
    ASSERT_NE(CpuPlatform::broadwell().cores, CpuPlatform::skylake().cores);
    EXPECT_EXIT(validateClusterConfig(cfg, "cluster"),
                ::testing::ExitedWithCode(1),
                "binding 1: platform core count differs from the machine's");
}

/** A two-model tier over 15 placed tables, left without namespaces. */
ClusterConfig
fifteenTableTwoModelTier()
{
    const std::vector<ModelMixEntry> mix = {
        makeMixEntry(ModelId::DlrmRmc2, 0.5),
        makeMixEntry(ModelId::WideAndDeep, 0.5),
    };
    ClusterConfig cfg;
    cfg.machines.assign(2, colocatedMachine(mix, CpuPlatform::skylake()));
    cfg.modelMix = mix;
    std::vector<EmbeddingTableInfo> tables;
    for (uint32_t t = 0; t < 15; t++)
        tables.push_back({t, 1'000'000ULL, 1.0 / 15.0});
    cfg.sharding = ShardingConfig{
        ShardPlacement::build(tables, machineMemoryBudgets(cfg.machines),
                              PlacementSpec{}),
        {}};
    return cfg;
}

ModelTableSpace
tableSpace(uint32_t base, uint32_t num_tables)
{
    return {TableSetSpec{.numTables = num_tables, .tablesPerQuery = 4},
            base};
}

TEST(ClusterConfig, TableNamespacesTilingThePlacedTablesPass)
{
    ClusterConfig cfg = fifteenTableTwoModelTier();
    cfg.sharding->models = {tableSpace(0, 7), tableSpace(7, 8)};
    MixedTraceTemplate mixed(LoadSpec{}, mixFractions(cfg.modelMix));
    mixed.ensure(200);
    const ClusterResult r = ClusterSimulator(cfg).run(
        mixed.materialize(2000.0, 200), RoutingSpec{RoutingKind::ShardAware});
    EXPECT_EQ(r.numCompleted, 200u);
}

TEST(ClusterConfigDeath, OverlappingTableNamespacesAreAConfigError)
{
    // Tables 5-9 would serve both models.
    ClusterConfig cfg = fifteenTableTwoModelTier();
    cfg.sharding->models = {tableSpace(0, 10), tableSpace(5, 10)};
    EXPECT_EXIT(validateClusterConfig(cfg, "cluster"),
                ::testing::ExitedWithCode(1),
                "cluster: table namespace 1 must start at table 10 and hold "
                "at least one table");
}

TEST(ClusterConfigDeath, TableNamespacesWithAGapAreAConfigError)
{
    // Tables 5 and 6 are placed but no query can reach them.
    ClusterConfig cfg = fifteenTableTwoModelTier();
    cfg.sharding->models = {tableSpace(0, 5), tableSpace(7, 8)};
    EXPECT_EXIT(validateClusterConfig(cfg, "cluster"),
                ::testing::ExitedWithCode(1),
                "cluster: table namespace 1 must start at table 5");
    // An empty namespace is refused too: its queries would touch no
    // table at all.
    cfg.sharding->models = {tableSpace(0, 15), tableSpace(15, 0)};
    EXPECT_EXIT(validateClusterConfig(cfg, "cluster"),
                ::testing::ExitedWithCode(1),
                "cluster: table namespace 1 must start at table 15 and hold "
                "at least one table");
}

TEST(ClusterConfigDeath, TableNamespacesShortOfThePlacementAreAConfigError)
{
    ClusterConfig cfg = fifteenTableTwoModelTier();
    cfg.sharding->models = {tableSpace(0, 5), tableSpace(5, 5)};
    EXPECT_EXIT(validateClusterConfig(cfg, "cluster"),
                ::testing::ExitedWithCode(1),
                "cluster: table namespaces cover 10 of the 15 placed tables");
}

TEST(ClusterConfigDeath, TableNamespaceCountOtherThanServedModelsIsAConfigError)
{
    // Two mix models need two namespaces; a single-model tier (empty
    // mix) needs exactly one.
    ClusterConfig cfg = fifteenTableTwoModelTier();
    cfg.sharding->models = {tableSpace(0, 15)};
    EXPECT_EXIT(validateClusterConfig(cfg, "cluster"),
                ::testing::ExitedWithCode(1),
                "cluster: 1 table namespaces for 2 served models");
    cfg.modelMix.clear();
    cfg.sharding->models.clear();
    EXPECT_EXIT(validateClusterConfig(cfg, "cluster"),
                ::testing::ExitedWithCode(1),
                "cluster: 0 table namespaces for 1 served models");
    cfg.sharding->models = {tableSpace(0, 7), tableSpace(7, 8)};
    EXPECT_EXIT(validateClusterConfig(cfg, "cluster"),
                ::testing::ExitedWithCode(1),
                "cluster: 2 table namespaces for 1 served models");
}

TEST(ClusterConfigDeath, MixFractionsNotSummingToOneIsAConfigError)
{
    const std::vector<ModelMixEntry> mix = {
        makeMixEntry(ModelId::DlrmRmc2, 0.5),
        makeMixEntry(ModelId::WideAndDeep, 0.4),
    };
    ClusterConfig cfg;
    cfg.machines = {colocatedMachine(mix, CpuPlatform::skylake())};
    cfg.modelMix = mix;
    EXPECT_EXIT(validateClusterConfig(cfg, "cluster"),
                ::testing::ExitedWithCode(1),
                "traffic fractions sum to 0.9, not 1");
}

TEST(ClusterConfigDeath, MoreMachinesThanSixteenBitIdsIsAConfigError)
{
    // ClusterResult::partMachinesOfQuery stores machine ids in 16 bits.
    EXPECT_EXIT(
        {
            ClusterConfig cfg;
            cfg.machines.assign(kMaxClusterMachines + 1, cpuMachine());
            validateClusterConfig(cfg, "cluster");
        },
        ::testing::ExitedWithCode(1), "65537 machines exceed the 65536");
}

} // namespace
} // namespace deeprecsys
