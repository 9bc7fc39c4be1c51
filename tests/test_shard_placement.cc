/**
 * @file
 * Tests for embedding-shard placement and shard-aware cluster
 * serving: budgets are never exceeded, placement and routing are
 * deterministic, fan-out/join conserves queries, shard-aware routing
 * only targets machines holding the query's tables, and replication
 * beats single-copy placement under load on skewed popularity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>

#include "cluster/cluster_sim.hh"
#include "cluster/model_mix.hh"
#include "cluster/shard_placement.hh"
#include "loadgen/query_stream.hh"
#include "tests/fixtures.hh"

namespace deeprecsys {
namespace {

constexpr uint64_t kGB = 1'000'000'000ULL;

/** The working set of query @p id, drawn as the router draws it. */
std::vector<uint32_t>
tablesOf(uint64_t id, const TableSetSpec& spec)
{
    return tablesOfQuery(id, spec,
                         tablePopularity(spec.numTables, spec.zipfS));
}

std::vector<EmbeddingTableInfo>
rmc2Tables()
{
    return embeddingTables(modelConfig(ModelId::DlrmRmc2));
}

/** @p n DLRM-RMC2 machines of @p budget bytes, the model's tables
 *  placed over them under @p strategy (a one-entry mix). */
ClusterConfig
shardedCluster(size_t n, uint64_t budget, PlacementStrategy strategy,
               uint32_t tables_per_query = 8)
{
    ModelMixEntry rmc2;
    rmc2.id = ModelId::DlrmRmc2;
    rmc2.policy.perRequestBatch = 256;
    const std::vector<ModelMixEntry> mix = {rmc2};
    ClusterConfig cfg;
    cfg.machines.assign(
        n, colocatedMachine(mix, CpuPlatform::skylake(), budget));
    PlacementSpec spec;
    spec.strategy = strategy;
    cfg.sharding = colocatedSharding(mix, machineMemoryBudgets(cfg.machines),
                                     spec, tables_per_query);
    return cfg;
}

TEST(EmbeddingTables, MatchModelConfigAndNormalizePopularity)
{
    const std::vector<EmbeddingTableInfo> tables = rmc2Tables();
    const ModelConfig cfg = modelConfig(ModelId::DlrmRmc2);
    ASSERT_EQ(tables.size(), cfg.numTables);
    double popularity = 0.0;
    for (size_t t = 0; t < tables.size(); t++) {
        EXPECT_EQ(tables[t].id, t);
        EXPECT_EQ(tables[t].bytes,
                  cfg.tableRows * cfg.embeddingDim * sizeof(float));
        if (t > 0) {
            EXPECT_LE(tables[t].popularity, tables[t - 1].popularity);
        }
        popularity += tables[t].popularity;
    }
    EXPECT_NEAR(popularity, 1.0, 1e-9);

    // Attention models carry their behavior table as an extra shard.
    const std::vector<EmbeddingTableInfo> dien =
        embeddingTables(modelConfig(ModelId::Dien));
    EXPECT_EQ(dien.size(), modelConfig(ModelId::Dien).numTables + 1);
}

TEST(ShardPlacement, BudgetsNeverExceededAllStrategies)
{
    const std::vector<EmbeddingTableInfo> tables = rmc2Tables();
    const std::vector<uint64_t> budgets(8, 2 * kGB);
    for (PlacementStrategy strategy : allPlacementStrategies()) {
        PlacementSpec spec;
        spec.strategy = strategy;
        const ShardPlacement p =
            ShardPlacement::build(tables, budgets, spec);
        ASSERT_TRUE(p.feasible()) << placementStrategyName(strategy);
        for (size_t m = 0; m < budgets.size(); m++) {
            EXPECT_LE(p.bytesOnMachine(m), budgets[m])
                << placementStrategyName(strategy);
            // Per-machine byte accounting matches the table list.
            uint64_t bytes = 0;
            for (uint32_t t : p.tablesOnMachine(m))
                bytes += tables[t].bytes;
            EXPECT_EQ(bytes, p.bytesOnMachine(m));
        }
        for (uint32_t t = 0; t < tables.size(); t++)
            EXPECT_FALSE(p.machinesOfTable(t).empty());
    }
}

TEST(ShardPlacement, InfeasibleWhenTablesCannotFit)
{
    const std::vector<EmbeddingTableInfo> tables = rmc2Tables();
    // 8 machines x 1 GB < 8.2 GB of tables: something must not fit.
    const std::vector<uint64_t> tight(8, 1 * kGB);
    PlacementSpec spec;
    spec.strategy = PlacementStrategy::GreedyBySize;
    EXPECT_FALSE(ShardPlacement::build(tables, tight, spec).feasible());
    // A budget below a single table size cannot hold anything.
    const std::vector<uint64_t> tiny(8, tables[0].bytes - 1);
    EXPECT_FALSE(ShardPlacement::build(tables, tiny, spec).feasible());
}

TEST(ShardPlacement, DeterministicForEqualInputs)
{
    const std::vector<EmbeddingTableInfo> tables = rmc2Tables();
    const std::vector<uint64_t> budgets(8, 2 * kGB);
    for (PlacementStrategy strategy : allPlacementStrategies()) {
        PlacementSpec spec;
        spec.strategy = strategy;
        const ShardPlacement a = ShardPlacement::build(tables, budgets, spec);
        const ShardPlacement b = ShardPlacement::build(tables, budgets, spec);
        for (size_t m = 0; m < budgets.size(); m++)
            EXPECT_EQ(a.tablesOnMachine(m), b.tablesOnMachine(m));
    }
}

TEST(ShardPlacement, HotColdReplicatesThePopularPrefix)
{
    const std::vector<EmbeddingTableInfo> tables = rmc2Tables();
    const std::vector<uint64_t> budgets(8, 3 * kGB);
    PlacementSpec spec;
    spec.strategy = PlacementStrategy::HotColdReplicated;
    const ShardPlacement p = ShardPlacement::build(tables, budgets, spec);
    ASSERT_TRUE(p.feasible());
    EXPECT_GT(p.totalReplicas(), tables.size());
    // Table 0 is the hottest under Zipf popularity: on every machine.
    EXPECT_EQ(p.machinesOfTable(0).size(), budgets.size());
    // With unconstrained budgets everything replicates everywhere.
    const ShardPlacement full = ShardPlacement::build(
        tables, std::vector<uint64_t>(4, 0), spec);
    EXPECT_EQ(full.totalReplicas(), tables.size() * 4);
}

TEST(ShardPlacement, HolderListsAscendAndMirrorEachOther)
{
    // 40 tables of 0.1-1.3 GB on 16 machines with 2/3/4 GB budgets:
    // extra replicas go to whichever machine has the most free bytes,
    // out of index order, and both lists must still come out sorted.
    const std::vector<double> weights = tablePopularity(40, 1.1);
    std::vector<EmbeddingTableInfo> tables;
    for (uint32_t t = 0; t < 40; t++)
        tables.push_back({t, (1 + (t * 7) % 13) * kGB / 10, weights[t]});
    std::vector<uint64_t> budgets;
    for (uint64_t m = 0; m < 16; m++)
        budgets.push_back((2 + m % 3) * kGB);

    const auto strictly_ascending = [](const std::vector<uint32_t>& list) {
        return std::ranges::adjacent_find(
                   list, std::ranges::greater_equal{}) == list.end();
    };
    for (PlacementStrategy strategy : allPlacementStrategies()) {
        for (uint32_t replicas = 1; replicas <= 3; replicas++) {
            SCOPED_TRACE(std::string(placementStrategyName(strategy)) +
                         " x" + std::to_string(replicas));
            const ShardPlacement p = ShardPlacement::build(
                tables, budgets,
                PlacementSpec{.strategy = strategy,
                              .minReplicas = replicas});
            ASSERT_TRUE(p.feasible());
            for (uint32_t t = 0; t < tables.size(); t++)
                EXPECT_TRUE(strictly_ascending(p.machinesOfTable(t)))
                    << "table " << t;
            for (size_t m = 0; m < budgets.size(); m++) {
                EXPECT_TRUE(strictly_ascending(p.tablesOnMachine(m)))
                    << "machine " << m;
                for (uint32_t t = 0; t < tables.size(); t++) {
                    const bool on_machine =
                        std::ranges::count(p.tablesOnMachine(m), t) == 1;
                    const bool of_table =
                        std::ranges::count(p.machinesOfTable(t), m) == 1;
                    EXPECT_EQ(on_machine, of_table)
                        << "machine " << m << ", table " << t;
                    EXPECT_EQ(p.holds(m, t), on_machine);
                }
            }
        }
    }
}

TEST(TablesOfQuery, DeterministicDistinctAndBounded)
{
    TableSetSpec spec;
    spec.numTables = 32;
    spec.tablesPerQuery = 8;
    for (uint64_t id : {0ULL, 1ULL, 999ULL}) {
        const std::vector<uint32_t> a = tablesOf(id, spec);
        const std::vector<uint32_t> b = tablesOf(id, spec);
        EXPECT_EQ(a, b);
        ASSERT_EQ(a.size(), spec.tablesPerQuery);
        EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
        const std::set<uint32_t> unique(a.begin(), a.end());
        EXPECT_EQ(unique.size(), a.size());
        for (uint32_t t : a)
            EXPECT_LT(t, spec.numTables);
    }
    // Different queries draw different working sets (zipf, not const).
    EXPECT_NE(tablesOf(1, spec), tablesOf(2, spec));
    // tablesPerQuery 0 means the DLRM worst case: every table.
    spec.tablesPerQuery = 0;
    EXPECT_EQ(tablesOf(7, spec).size(), spec.numTables);
}

TEST(TablesOfQuery, ZipfSkewPrefersHotTables)
{
    TableSetSpec spec;
    spec.numTables = 32;
    spec.tablesPerQuery = 4;
    spec.zipfS = 1.3;
    size_t hot_hits = 0;
    const size_t queries = 2000;
    for (uint64_t id = 0; id < queries; id++) {
        const std::vector<uint32_t> tables = tablesOf(id, spec);
        hot_hits += std::count_if(tables.begin(), tables.end(),
                                  [](uint32_t t) { return t < 4; });
    }
    // The 4 hottest of 32 tables draw far beyond their uniform share
    // (which would be 4/32 of all picks).
    const double hot_fraction = static_cast<double>(hot_hits) /
                                static_cast<double>(queries * 4);
    EXPECT_GT(hot_fraction, 0.3);
}

TEST(ShardedCluster, RoutesOnlyToHoldersAndConservesQueries)
{
    const ClusterConfig cfg = shardedCluster(
        8, 2 * kGB, PlacementStrategy::GreedyBySize);
    const ClusterSimulator sim(cfg);
    const QueryTrace trace = makeTrace(3000, 1500.0, 11);
    RoutingSpec spec;
    spec.kind = RoutingKind::ShardAware;
    const ClusterResult r = sim.run(trace, spec);

    // Conservation: every query dispatched and completed exactly once.
    EXPECT_EQ(r.numDispatched, trace.size());
    EXPECT_EQ(r.numCompleted, trace.size());
    uint64_t led = 0;
    uint64_t completed = 0;
    for (const MachineStats& m : r.perMachine) {
        led += m.queriesDispatched;
        completed += m.queriesCompleted;
    }
    EXPECT_EQ(led, trace.size());
    EXPECT_EQ(completed, trace.size());
    EXPECT_GE(r.numParts, r.numDispatched);
    EXPECT_GT(r.meanFanout, 1.0);    // 4 tables/machine forces fan-out

    // Shard-aware routing only targets machines holding (a replica
    // of) the query's tables, and together the parts cover them all.
    const ShardPlacement& placement = cfg.sharding->placement;
    for (size_t i = 0; i < trace.size(); i++) {
        const std::vector<uint32_t> tables =
            tablesOf(trace[i].id, cfg.sharding->models[0].set);
        const std::span<const uint16_t> machines =
            r.partMachinesOfQuery.row(i);
        ASSERT_FALSE(machines.empty());
        EXPECT_EQ(machines.front(), r.machineOfQuery[i]);
        std::set<uint32_t> covered;
        for (uint32_t m : machines) {
            bool holds_any = false;
            for (uint32_t t : tables) {
                if (placement.holds(m, t)) {
                    holds_any = true;
                    covered.insert(t);
                }
            }
            EXPECT_TRUE(holds_any)
                << "machine " << m << " holds none of query " << i
                << "'s tables";
        }
        EXPECT_EQ(covered.size(), tables.size());
    }
}

TEST(ShardedCluster, DeterministicUnderFixedSeeds)
{
    const ClusterConfig cfg = shardedCluster(
        8, 2 * kGB, PlacementStrategy::HotColdReplicated);
    const ClusterSimulator sim(cfg);
    const QueryTrace trace = makeTrace(3000, 1500.0, 11);
    RoutingSpec spec;
    spec.kind = RoutingKind::ShardAware;
    const ClusterResult a = sim.run(trace, spec);
    const ClusterResult b = sim.run(trace, spec);
    EXPECT_EQ(a.machineOfQuery, b.machineOfQuery);
    EXPECT_EQ(a.partMachinesOfQuery, b.partMachinesOfQuery);
    EXPECT_EQ(a.numParts, b.numParts);
    EXPECT_DOUBLE_EQ(a.p99Ms(), b.p99Ms());
}

TEST(ShardedCluster, MemoryBudgetsNeverExceededInRun)
{
    const ClusterConfig cfg = shardedCluster(
        8, 2 * kGB, PlacementStrategy::RoundRobin);
    const ClusterSimulator sim(cfg);
    const ClusterResult r = sim.run(makeTrace(1000, 1000.0, 11), RoutingSpec{
        RoutingKind::ShardAware});
    for (size_t m = 0; m < r.perMachine.size(); m++) {
        EXPECT_GT(r.perMachine[m].embBytesStored, 0u);
        EXPECT_LE(r.perMachine[m].embBytesStored,
                  cfg.machines[m].memoryBytes);
    }
}

TEST(ShardedCluster, FullReplicationStaysSingleHop)
{
    // Unconstrained budgets + hot/cold replication = every machine
    // holds every table, so no query ever fans out.
    const ClusterConfig cfg = shardedCluster(
        4, 0, PlacementStrategy::HotColdReplicated);
    const ClusterSimulator sim(cfg);
    const ClusterResult r = sim.run(makeTrace(2000, 1000.0, 11), RoutingSpec{
        RoutingKind::ShardAware});
    EXPECT_DOUBLE_EQ(r.meanFanout, 1.0);
    for (const auto& machines : r.partMachinesOfQuery)
        EXPECT_EQ(machines.size(), 1u);
}

TEST(ShardedCluster, NetworkHopRaisesLatency)
{
    ClusterConfig base = shardedCluster(
        8, 2 * kGB, PlacementStrategy::GreedyBySize);
    const QueryTrace trace = makeTrace(2000, 1200.0, 11);
    RoutingSpec spec;
    spec.kind = RoutingKind::ShardAware;

    const ClusterResult free_net = ClusterSimulator(base).run(trace, spec);
    base.network.hopSeconds = 500e-6;
    base.network.gigabytesPerSecond = 10.0;
    const ClusterResult taxed = ClusterSimulator(base).run(trace, spec);

    // Every query pays at least a round trip; fan-out pays it per part.
    EXPECT_GT(taxed.meanMs(), free_net.meanMs() + 2 * 0.5 - 0.01);
    EXPECT_GT(taxed.p99Ms(), free_net.p99Ms());
}

TEST(ShardedCluster, ReplicationBeatsSingleCopyUnderLoadedSkew)
{
    // Under load, joining on the slowest of many parts saturates the
    // single-copy placements well before the replicated one: hot/cold
    // replication keeps popular working sets single-hop.
    const QueryTrace trace = makeTrace(6000, 3000.0, 11);
    RoutingSpec spec;
    spec.kind = RoutingKind::ShardAware;

    const ClusterResult single = ClusterSimulator(shardedCluster(
        8, 3 * kGB, PlacementStrategy::GreedyBySize)).run(trace, spec);
    const ClusterResult replicated = ClusterSimulator(shardedCluster(
        8, 3 * kGB, PlacementStrategy::HotColdReplicated)).run(trace, spec);

    EXPECT_LT(replicated.p99Ms(), single.p99Ms());
    EXPECT_LT(replicated.meanFanout, single.meanFanout);
}

TEST(ShardedCluster, NonShardPoliciesStillRunOnShardedConfig)
{
    // A sharded ClusterConfig does not force shard-aware routing:
    // classic policies ignore the placement and stay whole-query.
    const ClusterConfig cfg = shardedCluster(
        4, 4 * kGB, PlacementStrategy::HotColdReplicated);
    const ClusterSimulator sim(cfg);
    const ClusterResult r = sim.run(makeTrace(1000, 800.0, 11), RoutingSpec{
        RoutingKind::JoinShortestQueue});
    EXPECT_EQ(r.numCompleted, 1000u);
    EXPECT_DOUBLE_EQ(r.meanFanout, 1.0);
}

TEST(PartialRequestSeconds, ConsistentWithFullRequest)
{
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc2);
    const CpuCostModel cpu(profile, CpuPlatform::skylake());
    const size_t batch = 128;
    const size_t cores = 4;
    const double full = cpu.requestSeconds(batch, cores);
    EXPECT_DOUBLE_EQ(
        cpu.partialRequestSeconds(batch, cores, 1.0, true), full);
    const double half = cpu.partialRequestSeconds(batch, cores, 0.5, true);
    const double quarter =
        cpu.partialRequestSeconds(batch, cores, 0.25, true);
    EXPECT_LT(half, full);
    EXPECT_LT(quarter, half);
    // A remote (lookup-only) part is cheaper than a leader part at
    // the same fraction, but still pays the dispatch overhead.
    const double remote =
        cpu.partialRequestSeconds(batch, cores, 0.5, false);
    EXPECT_LT(remote, half);
    EXPECT_GE(remote, cpu.params().requestOverheadS);
}

} // namespace
} // namespace deeprecsys
