/**
 * @file
 * Tests for the cluster routing policies, against a real ClusterView
 * whose state is set the way the cluster loop sets it: in-flight
 * counts through flightAdd, queued work through its engines, the
 * accepting set through setAccepting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>

#include "cluster/cluster_sim.hh"
#include "cluster/model_mix.hh"
#include "cluster/routing_policy.hh"
#include "base/random.hh"
#include "loadgen/query_stream.hh"
#include "models/model_config.hh"

namespace deeprecsys {
namespace {

SimConfig
cpuMachine(double slowdown = 1.0)
{
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc1);
    SchedulerPolicy policy;
    policy.perRequestBatch = 256;
    SimConfig machine{CpuCostModel(profile, CpuPlatform::skylake()),
                      std::nullopt, policy};
    machine.slowdown = slowdown;
    return machine;
}

SimConfig
gpuMachine()
{
    SimConfig machine = cpuMachine();
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc1);
    machine.bindings[0].gpu = GpuCostModel(profile, GpuPlatform::gtx1080Ti());
    machine.bindings[0].policy.gpuEnabled = true;
    return machine;
}

/** @p n CPU-only machines, with an accelerator on each of @p gpus. */
std::vector<SimConfig>
machines(size_t n, const std::set<size_t>& gpus = {})
{
    std::vector<SimConfig> out;
    for (size_t m = 0; m < n; m++)
        out.push_back(gpus.count(m) ? gpuMachine() : cpuMachine());
    return out;
}

Query
query(uint64_t id, uint32_t size = 10, uint16_t model = 0)
{
    Query q;
    q.id = id;
    q.arrivalSeconds = static_cast<double>(id) * 1e-3;
    q.size = size;
    q.model = model;
    return q;
}

/** Count @p count parts in flight on machine @p m. */
void
addInFlight(ClusterView& view, size_t m, size_t count)
{
    for (size_t i = 0; i < count; i++)
        view.flightAdd(m);
}

/** Queue @p items requests on machine @p m behind its busy cores. */
void
queueWork(ClusterView& view, size_t m, size_t items)
{
    std::vector<EngineEvent> started;
    MachineEngine& engine = view.engine(m);
    PartSpec part;
    while (engine.queuedWork() < items) {
        engine.admit(part, 0.0, started);
        part.partIdx++;
    }
}

/**
 * Route every query of @p global through @p policy, counting each
 * dispatch as in flight on @p view (nothing completes), and return
 * the per-machine slices.
 */
std::vector<QueryTrace>
dealTrace(const QueryTrace& global, ClusterView& view, RoutingPolicy& policy)
{
    std::vector<QueryTrace> slices(view.numMachines());
    for (const Query& q : global) {
        const size_t m = policy.route(q, view);
        slices.at(m).push_back(q);
        view.flightAdd(m);
    }
    return slices;
}

QueryTrace
productionTrace(size_t count, double qps = 5000.0)
{
    LoadSpec load;
    load.qps = qps;
    QueryStream stream(load);
    return stream.generate(count);
}

/** DLRM-RMC2's tables, tablesPerQuery per query, placed on
 *  @p configs with every table on at least @p min_replicas. */
ShardingConfig
rmc2Sharding(const std::vector<SimConfig>& configs, uint32_t min_replicas)
{
    PlacementSpec spec;
    spec.minReplicas = min_replicas;
    ShardingConfig sharding =
        colocatedSharding({makeMixEntry(ModelId::DlrmRmc2, 1.0)},
                          machineMemoryBudgets(configs), spec, 8);
    EXPECT_TRUE(sharding.placement.feasible());
    EXPECT_TRUE(sharding.placement.replicatedFor(min_replicas));
    return sharding;
}

/** All six policies, ShardAware included. */
std::vector<RoutingKind>
everyRoutingKind()
{
    std::vector<RoutingKind> kinds = allRoutingKinds();
    kinds.push_back(RoutingKind::ShardAware);
    return kinds;
}

TEST(RoutingPolicy, FactoryBuildsEveryKind)
{
    for (RoutingKind kind : allRoutingKinds()) {
        RoutingSpec spec;
        spec.kind = kind;
        const auto policy = makeRoutingPolicy(spec);
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(policy->kind(), kind);
        EXPECT_STRNE(policy->name(), "unknown");
    }
}

TEST(RoutingPolicy, RoundRobinCycles)
{
    const auto policy = makeRoutingPolicy({RoutingKind::RoundRobin, 0, 0});
    const std::vector<SimConfig> configs = machines(4);
    const ClusterView view(configs);
    for (uint64_t i = 0; i < 12; i++)
        EXPECT_EQ(policy->route(query(i), view), i % 4);
}

TEST(RoutingPolicy, RoundRobinRotatesEvenlyOverTheLiveSet)
{
    const auto policy = makeRoutingPolicy({RoutingKind::RoundRobin, 0, 0});
    const std::vector<SimConfig> configs = machines(5);
    ClusterView view(configs);
    view.setAccepting(2, false);
    const std::vector<size_t> live = {0, 1, 3, 4};
    std::map<size_t, size_t> count;
    for (uint64_t i = 0; i < 400; i++) {
        const size_t m = policy->route(query(i), view);
        EXPECT_EQ(m, live[i % live.size()]);
        count[m]++;
    }
    ASSERT_EQ(count.size(), live.size());
    for (const auto& [m, n] : count)
        EXPECT_EQ(n, 100u) << "machine " << m;
}

TEST(RoutingPolicy, UniformRandomCoversAllMachines)
{
    const auto policy =
        makeRoutingPolicy({RoutingKind::UniformRandom, 99, 0});
    const std::vector<SimConfig> configs = machines(8);
    const ClusterView view(configs);
    std::set<size_t> seen;
    for (uint64_t i = 0; i < 400; i++)
        seen.insert(policy->route(query(i), view));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RoutingPolicy, JsqPicksLeastLoaded)
{
    const auto policy =
        makeRoutingPolicy({RoutingKind::JoinShortestQueue, 0, 0});
    const std::vector<SimConfig> configs = machines(4);
    ClusterView view(configs);
    addInFlight(view, 0, 5);
    addInFlight(view, 1, 2);
    addInFlight(view, 2, 7);
    addInFlight(view, 3, 3);
    EXPECT_EQ(policy->route(query(0), view), 1u);
    queueWork(view, 1, 10);    // queued work counts toward load
    EXPECT_EQ(policy->route(query(1), view), 3u);
}

TEST(RoutingPolicy, JsqNormalizesBySpeed)
{
    const auto policy =
        makeRoutingPolicy({RoutingKind::JoinShortestQueue, 0, 0});
    // Machine 0 has fewer jobs but is 4x slower: expected delay is
    // higher, so the faster machine 1 wins.
    const std::vector<SimConfig> configs = {cpuMachine(4.0), cpuMachine()};
    ClusterView view(configs);
    EXPECT_DOUBLE_EQ(view.speedFactor(0), 0.25);
    addInFlight(view, 0, 3);
    addInFlight(view, 1, 8);
    EXPECT_EQ(policy->route(query(0), view), 1u);
}

TEST(RoutingPolicy, PowerOfTwoAvoidsOverloadedMachine)
{
    const auto policy =
        makeRoutingPolicy({RoutingKind::PowerOfTwoChoices, 7, 0});
    const std::vector<SimConfig> configs = machines(6);
    ClusterView view(configs);
    addInFlight(view, 0, 1000);
    // Machine 0 loses every pairwise comparison, so it is only ever
    // picked when both samples would be 0 — which sampling without
    // replacement rules out.
    for (uint64_t i = 0; i < 300; i++)
        EXPECT_NE(policy->route(query(i), view), 0u);
}

TEST(RoutingPolicy, SizeAwareSteersByThreshold)
{
    RoutingSpec spec;
    spec.kind = RoutingKind::SizeAware;
    spec.sizeThreshold = 100;
    const auto policy = makeRoutingPolicy(spec);
    const std::vector<SimConfig> configs = machines(6, {2, 4});
    const ClusterView view(configs);
    for (uint64_t i = 0; i < 100; i++) {
        const size_t large = policy->route(query(i, 100 + i % 50), view);
        EXPECT_TRUE(large == 2 || large == 4);
        const size_t small = policy->route(query(i, 1 + i % 99), view);
        EXPECT_TRUE(small != 2 && small != 4);
    }
}

TEST(RoutingPolicy, SizeAwareFallsBackWithoutGpus)
{
    RoutingSpec spec;
    spec.kind = RoutingKind::SizeAware;
    spec.sizeThreshold = 10;
    const auto policy = makeRoutingPolicy(spec);
    const std::vector<SimConfig> configs = machines(3);    // no GPUs
    const ClusterView view(configs);
    for (uint64_t i = 0; i < 30; i++)
        EXPECT_LT(policy->route(query(i, 500), view), 3u);
}

TEST(RoutingPolicy, NoPolicyRoutesToANonAcceptingMachine)
{
    std::vector<SimConfig> configs = machines(6, {0, 3});
    for (SimConfig& machine : configs)
        machine.memoryBytes = 6'000'000'000ULL;
    // Three replicas per table: two machines out leave every table a
    // live replica, so every plan is non-empty.
    const ShardingConfig sharding = rmc2Sharding(configs, 3);
    const QueryTrace trace = productionTrace(300);
    for (RoutingKind kind : everyRoutingKind()) {
        SCOPED_TRACE(routingKindName(kind));
        const auto policy = makeRoutingPolicy({kind, 5, 100}, &sharding);
        ClusterView view(configs);
        view.setAccepting(1, false);
        view.setAccepting(3, false);
        std::set<size_t> used;
        for (const Query& q : trace) {
            const std::vector<ShardTarget> plan = policy->routeParts(q, view);
            ASSERT_FALSE(plan.empty());
            for (const ShardTarget& part : plan) {
                EXPECT_TRUE(view.accepting(part.machine))
                    << "routed to machine " << part.machine;
                used.insert(part.machine);
                view.flightAdd(part.machine);
            }
        }
        EXPECT_EQ(used.count(1) + used.count(3), 0u);
    }
}

TEST(ClusterView, AllAcceptingTracksSetAccepting)
{
    const std::vector<SimConfig> configs = machines(3);
    ClusterView view(configs);
    EXPECT_TRUE(view.allAccepting());
    EXPECT_EQ(view.acceptingCount(), 3u);
    view.setAccepting(1, false);
    EXPECT_FALSE(view.allAccepting());
    EXPECT_FALSE(view.accepting(1));
    EXPECT_EQ(view.acceptingCount(), 2u);
    view.setAccepting(1, false);    // idempotent
    EXPECT_EQ(view.acceptingCount(), 2u);
    view.setAccepting(0, false);
    view.setAccepting(2, false);
    EXPECT_EQ(view.acceptingCount(), 0u);
    view.setAccepting(1, true);
    view.setAccepting(1, true);
    EXPECT_EQ(view.acceptingCount(), 1u);
    view.setAccepting(0, true);
    view.setAccepting(2, true);
    EXPECT_TRUE(view.allAccepting());
}

TEST(SplitTrace, RoundRobinSplitsEvenly)
{
    const QueryTrace global = productionTrace(800);
    const auto policy = makeRoutingPolicy({RoutingKind::RoundRobin, 0, 0});
    const std::vector<SimConfig> configs = machines(8);
    ClusterView view(configs);
    const std::vector<QueryTrace> slices = dealTrace(global, view, *policy);
    for (const QueryTrace& slice : slices)
        EXPECT_EQ(slice.size(), 100u);
}

TEST(SplitTrace, DeterministicForEqualSeeds)
{
    const QueryTrace global = productionTrace(500);
    const auto a = makeRoutingPolicy({RoutingKind::UniformRandom, 42, 0});
    const auto b = makeRoutingPolicy({RoutingKind::UniformRandom, 42, 0});
    const std::vector<SimConfig> configs = machines(5);
    ClusterView view_a(configs);
    ClusterView view_b(configs);
    const auto sa = dealTrace(global, view_a, *a);
    const auto sb = dealTrace(global, view_b, *b);
    for (size_t m = 0; m < 5; m++) {
        ASSERT_EQ(sa[m].size(), sb[m].size());
        for (size_t i = 0; i < sa[m].size(); i++)
            EXPECT_EQ(sa[m][i].id, sb[m][i].id);
    }
}

TEST(SplitTrace, SizeAwareSteersByGpuPresence)
{
    const QueryTrace global = productionTrace(600);
    RoutingSpec spec;
    spec.kind = RoutingKind::SizeAware;
    spec.sizeThreshold = 200;
    const auto policy = makeRoutingPolicy(spec);

    const std::vector<SimConfig> configs = machines(4, {3});
    ClusterView view(configs);
    const auto slices = dealTrace(global, view, *policy);
    for (size_t m = 0; m < 3; m++) {
        for (const Query& q : slices[m])
            EXPECT_LT(q.size, 200u);
    }
    for (const Query& q : slices[3])
        EXPECT_GE(q.size, 200u);
}

/**
 * The routing pin's tier: four DLRM-RMC2 machines at slowdowns
 * 1.0/1.3/1.0/1.3, machine 0 with an accelerator, tables sharded
 * under 4 GB budgets, crashes with failover, and deadline admission.
 */
ClusterConfig
pinTier()
{
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc2);
    ClusterConfig cluster;
    for (size_t m = 0; m < 4; m++) {
        SchedulerPolicy policy;
        policy.perRequestBatch = 256;
        std::optional<GpuCostModel> gpu;
        if (m == 0) {
            policy.gpuEnabled = true;
            policy.gpuQueryThreshold = 128;
            gpu = GpuCostModel(profile, GpuPlatform::gtx1080Ti());
        }
        SimConfig machine{CpuCostModel(profile, CpuPlatform::skylake()),
                          gpu, policy};
        machine.slowdown = m % 2 == 0 ? 1.0 : 1.3;
        machine.memoryBytes = 4'000'000'000ULL;
        cluster.machines.push_back(machine);
    }
    cluster.network.hopSeconds = 150e-6;
    cluster.network.gigabytesPerSecond = 12.5;
    // Second replicas are best effort here: some tables keep one copy,
    // so a crash can leave a query with no covering set (unroutable).
    cluster.sharding = colocatedSharding(
        {makeMixEntry(ModelId::DlrmRmc2, 1.0)},
        machineMemoryBudgets(cluster.machines),
        PlacementSpec{.minReplicas = 2}, 8);
    EXPECT_TRUE(cluster.sharding->placement.feasible());
    cluster.faults.crashesPerHour = 7200.0;
    cluster.faults.repairSeconds = 0.1;
    cluster.faults.maxFailovers = 2;
    cluster.overload.admission = AdmissionKind::Deadline;
    cluster.overload.deadlineSeconds = 0.1;
    return cluster;
}

/** FNV-1a 64 of every query's leader machine, then of every query's
 *  row of part machines (its length first). */
uint64_t
routingHash(const ClusterResult& r)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](uint32_t v) {
        for (int i = 0; i < 4; i++) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    };
    for (uint32_t m : r.machineOfQuery)
        mix(m);
    for (size_t i = 0; i < r.partMachinesOfQuery.size(); i++) {
        const auto row = r.partMachinesOfQuery.row(i);
        mix(static_cast<uint32_t>(row.size()));
        for (uint32_t m : row)
            mix(m);
    }
    return h;
}

TEST(RoutingPin, EveryPolicyRoutesEveryQueryToTheSameMachines)
{
    // Percentile goldens compare within 1e-9 and can miss one flipped
    // tie; this pins each policy's every routing choice exactly.
    const ClusterConfig cfg = pinTier();
    LoadSpec load;
    load.arrivalSeed = 0x5017;
    load.sizeSeed = 0x5018;
    TraceTemplate tmpl(load);
    tmpl.ensure(3000);
    const QueryTrace trace = tmpl.materialize(4000.0, 3000);
    const ClusterSimulator sim(cfg);
    const std::map<RoutingKind, uint64_t> pinned = {
        {RoutingKind::RoundRobin, 0x7021d22cca800e31ULL},
        {RoutingKind::UniformRandom, 0x554ff40da5a4cd22ULL},
        {RoutingKind::JoinShortestQueue, 0xb961eb679abf4e4cULL},
        {RoutingKind::PowerOfTwoChoices, 0x56af3f41689e129cULL},
        {RoutingKind::SizeAware, 0x5745f20bc769f034ULL},
        {RoutingKind::ShardAware, 0x1882c205d71bc3cdULL},
    };
    for (RoutingKind kind : everyRoutingKind()) {
        SCOPED_TRACE(routingKindName(kind));
        RoutingSpec spec;
        spec.kind = kind;
        const ClusterResult r = sim.run(trace, spec);
        EXPECT_GT(r.faults.crashes, 0u);
        EXPECT_GT(r.overload.dropped, 0u);
        EXPECT_EQ(routingHash(r), pinned.at(kind));
    }
}

TEST(RoutingPin, HedgedReplicatedTierRoutesEveryQueryToTheSameMachines)
{
    // Eight machines with 2/3/4 GB budgets and three replicas per
    // table where they fit: extra replicas land out of index order,
    // so routing and hedging walk holder lists the placement had to
    // sort. Crashes fail parts over; hedges duplicate slow parts.
    ClusterConfig cfg;
    for (size_t m = 0; m < 8; m++) {
        SimConfig machine = cpuMachine(m % 2 == 0 ? 1.0 : 1.3);
        machine.memoryBytes = (2 + m % 3) * 1'000'000'000ULL;
        cfg.machines.push_back(machine);
    }
    cfg.network.hopSeconds = 150e-6;
    cfg.network.gigabytesPerSecond = 12.5;
    cfg.sharding = colocatedSharding(
        {makeMixEntry(ModelId::DlrmRmc2, 1.0)},
        machineMemoryBudgets(cfg.machines), PlacementSpec{.minReplicas = 3},
        8);
    ASSERT_TRUE(cfg.sharding->placement.feasible());
    cfg.faults.crashesPerHour = 3600.0;
    cfg.faults.repairSeconds = 0.1;
    cfg.faults.maxFailovers = 2;
    cfg.hedge.delaySeconds = 0.004;

    LoadSpec load;
    load.qps = 6000.0;
    load.arrivalSeed = 0x6ed9;
    load.sizeSeed = 0x6eda;
    const QueryTrace trace = QueryStream(load).generate(4000);
    const ClusterResult r =
        ClusterSimulator(cfg).run(trace, RoutingSpec{RoutingKind::ShardAware});
    EXPECT_GT(r.faults.crashes, 0u);
    EXPECT_GT(r.faults.hedged, 0u);
    EXPECT_EQ(routingHash(r), 0x80e8a5a35c29573eULL);
}

/**
 * The shard-aware router as a scan over every machine: the reference
 * the holder-list router must match plan for plan. @p holds is the
 * placement as a [machine][table] bitmap.
 */
std::vector<ShardTarget>
scanRouteParts(const std::vector<std::vector<bool>>& holds,
               const std::vector<uint32_t>& tables, const ClusterView& view)
{
    const size_t n = view.numMachines();
    size_t whole = n;
    for (size_t m = 0; m < n; m++) {
        const bool all = std::ranges::all_of(
            tables, [&](uint32_t t) { return holds[m][t]; });
        if (view.accepting(m) && all &&
            (whole == n || view.loadSignal(m) < view.loadSignal(whole)))
            whole = m;
    }
    if (whole < n) {
        ShardTarget part;
        part.machine = static_cast<uint32_t>(whole);
        part.leader = true;
        return {part};
    }
    std::vector<ShardTarget> parts;
    std::vector<bool> used(n, false);
    std::vector<bool> covered(tables.size(), false);
    size_t uncovered = tables.size();
    while (uncovered > 0) {
        size_t best = n;
        size_t best_cover = 0;
        for (size_t m = 0; m < n; m++) {
            if (used[m] || !view.accepting(m))
                continue;
            size_t cover = 0;
            for (size_t i = 0; i < tables.size(); i++)
                cover += !covered[i] && holds[m][tables[i]];
            if (cover > 0 &&
                (best == n || cover > best_cover ||
                 (cover == best_cover &&
                  view.loadSignal(m) < view.loadSignal(best)))) {
                best = m;
                best_cover = cover;
            }
        }
        if (best == n)
            return {};
        used[best] = true;
        ShardTarget part;
        part.machine = static_cast<uint32_t>(best);
        part.leader = parts.empty();
        for (size_t i = 0; i < tables.size(); i++) {
            if (!covered[i] && holds[best][tables[i]]) {
                covered[i] = true;
                uncovered--;
                part.tables.push_back(tables[i]);
            }
        }
        part.embFraction = static_cast<double>(best_cover) /
                           static_cast<double>(tables.size());
        parts.push_back(std::move(part));
    }
    return parts;
}

/** The tables query @p q touches, drawn as the shard-aware router
 *  draws them (in its model's namespace). */
std::vector<uint32_t>
touchedTables(const ShardingConfig& sharding, const Query& q)
{
    const ModelTableSpace& space = sharding.models[q.model];
    std::vector<uint32_t> tables = tablesOfQuery(
        q.id, space.set, tablePopularity(space.set.numTables, space.set.zipfS));
    for (uint32_t& t : tables)
        t += space.base;
    return tables;
}

TEST(ShardAwareRouting, HolderListRouterMatchesTheMachineScan)
{
    // Random placements (every strategy, 1-3 replicas, heterogeneous
    // budgets, some on a two-model table namespace), random down
    // machines and random load: every plan equals the scan's.
    Rng rng(0xd1ffULL);
    const auto draw = [&rng](int64_t lo, int64_t hi) {
        return static_cast<size_t>(rng.uniformInt(lo, hi));
    };
    size_t single_hop = 0;
    size_t fanned = 0;
    size_t empty = 0;
    for (PlacementStrategy strategy : allPlacementStrategies()) {
        for (uint32_t replicas = 1; replicas <= 3; replicas++) {
            for (int trial = 0; trial < 4; trial++) {
                SCOPED_TRACE(std::string(placementStrategyName(strategy)) +
                             " x" + std::to_string(replicas) + " trial " +
                             std::to_string(trial));
                const size_t n = draw(4, 24);
                const uint32_t num_tables =
                    static_cast<uint32_t>(draw(8, 48));
                const std::vector<double> weights =
                    tablePopularity(num_tables, 1.1);
                std::vector<EmbeddingTableInfo> tables;
                uint64_t total = 0;
                for (uint32_t t = 0; t < num_tables; t++) {
                    tables.push_back({t, draw(1, 13) * 100'000'000ULL,
                                      weights[t]});
                    total += tables.back().bytes;
                }
                std::vector<uint64_t> budgets;
                for (size_t m = 0; m < n; m++) {
                    budgets.push_back(draw(0, 15) == 0
                        ? 0    // unconstrained
                        : std::max<uint64_t>(1'300'000'000ULL,
                                             total * draw(15, 40) /
                                                 (10 * n)));
                }
                ShardingConfig sharding{
                    ShardPlacement::build(
                        tables, budgets,
                        PlacementSpec{.strategy = strategy,
                                      .minReplicas = replicas}),
                    {{TableSetSpec{.numTables = num_tables,
                                   .tablesPerQuery =
                                       static_cast<uint32_t>(draw(1, 10))}}}};
                ASSERT_TRUE(sharding.placement.feasible());
                if (trial % 2 == 1) {
                    // Two models splitting the table id space.
                    const uint32_t first = num_tables / 2;
                    sharding.models.resize(2);
                    for (uint32_t k = 0; k < 2; k++) {
                        sharding.models[k] = {
                            TableSetSpec{
                                .numTables = k == 0 ? first
                                                    : num_tables - first,
                                .tablesPerQuery =
                                    static_cast<uint32_t>(draw(1, 6)),
                                .seed = 0x7ab1e5ULL + k},
                            k == 0 ? 0 : first};
                    }
                }
                std::vector<std::vector<bool>> holds(
                    n, std::vector<bool>(num_tables, false));
                for (size_t m = 0; m < n; m++) {
                    for (uint32_t t : sharding.placement.tablesOnMachine(m))
                        holds[m][t] = true;
                }
                const auto policy = makeRoutingPolicy(
                    {RoutingKind::ShardAware}, &sharding);
                std::vector<SimConfig> configs;
                for (size_t m = 0; m < n; m++)
                    configs.push_back(cpuMachine(1.0 + 0.5 * draw(0, 2)));

                for (int state = 0; state < 6; state++) {
                    ClusterView view(configs);
                    for (size_t m = 0; m < n; m++) {
                        view.setAccepting(m, draw(0, 3) != 0);
                        addInFlight(view, m, draw(0, 3));
                        queueWork(view, m, draw(0, 2));
                    }
                    for (int i = 0; i < 40; i++) {
                        const Query q = query(
                            draw(0, 1'000'000), 10,
                            static_cast<uint16_t>(
                                sharding.models.size() == 2 ? draw(0, 1)
                                                            : 0));
                        const std::vector<ShardTarget> got =
                            policy->routeParts(q, view);
                        const std::vector<ShardTarget> want = scanRouteParts(
                            holds, touchedTables(sharding, q), view);
                        ASSERT_EQ(got.size(), want.size());
                        for (size_t k = 0; k < got.size(); k++) {
                            EXPECT_EQ(got[k].machine, want[k].machine);
                            EXPECT_EQ(got[k].leader, want[k].leader);
                            EXPECT_EQ(got[k].tables, want[k].tables);
                            EXPECT_EQ(std::bit_cast<uint64_t>(
                                          got[k].embFraction),
                                      std::bit_cast<uint64_t>(
                                          want[k].embFraction));
                        }
                        single_hop += got.size() == 1;
                        fanned += got.size() > 1;
                        empty += got.empty();
                    }
                }
            }
        }
    }
    EXPECT_GT(single_hop, 100u);
    EXPECT_GT(fanned, 100u);
    EXPECT_GT(empty, 100u);
}

} // namespace
} // namespace deeprecsys
