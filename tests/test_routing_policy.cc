/**
 * @file
 * Tests for the cluster routing policies, against a real ClusterView
 * whose state is set the way the cluster loop sets it: in-flight
 * counts through flightAdd, queued work through its engines, the
 * accepting set through setAccepting.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cluster/cluster_sim.hh"
#include "cluster/routing_policy.hh"
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
    return SimConfig{CpuCostModel(profile, CpuPlatform::skylake()),
                     std::nullopt, policy, 0.05, slowdown};
}

SimConfig
gpuMachine()
{
    SimConfig machine = cpuMachine();
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc1);
    machine.gpu = GpuCostModel(profile, GpuPlatform::gtx1080Ti());
    machine.policy.gpuEnabled = true;
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
        view.flightAdd(m, 0);
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
        view.flightAdd(m, q.model);
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
    const ShardPlacement placement = ShardPlacement::build(
        embeddingTables(modelConfig(ModelId::DlrmRmc2)),
        machineMemoryBudgets(configs), spec);
    EXPECT_TRUE(placement.feasible());
    EXPECT_TRUE(placement.replicatedFor(min_replicas));
    TableSetSpec table_set;
    table_set.numTables =
        static_cast<uint32_t>(modelConfig(ModelId::DlrmRmc2).numTables);
    table_set.tablesPerQuery = 8;
    return ShardingConfig{placement, table_set};
}

/** All eight policies, ShardAware and the model-aware kinds included. */
std::vector<RoutingKind>
everyRoutingKind()
{
    std::vector<RoutingKind> kinds = allRoutingKinds();
    kinds.push_back(RoutingKind::ShardAware);
    kinds.push_back(RoutingKind::ModelAwareJsq);
    kinds.push_back(RoutingKind::ModelAwarePo2c);
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
                view.flightAdd(part.machine, q.model);
            }
        }
        EXPECT_EQ(used.count(1) + used.count(3), 0u);
    }
}

TEST(RoutingPolicy, ModelAwarePoliciesStayInTheModelsReplicaSet)
{
    // Machines 1 and 3 also serve model 1; 0 and 2 serve model 0 only.
    std::vector<SimConfig> configs = machines(4);
    const ModelProfile profile = ModelProfile::forModel(ModelId::Ncf);
    SchedulerPolicy co_policy;
    co_policy.perRequestBatch = 256;
    for (size_t m : {1, 3})
        configs[m].coModels.push_back(
            {CpuCostModel(profile, CpuPlatform::skylake()), std::nullopt,
             co_policy});
    for (RoutingKind kind :
         {RoutingKind::ModelAwareJsq, RoutingKind::ModelAwarePo2c}) {
        SCOPED_TRACE(routingKindName(kind));
        const auto policy = makeRoutingPolicy({kind, 3, 0});
        ClusterView view(configs, 2);
        EXPECT_FALSE(view.servesModel(0, 1));
        EXPECT_TRUE(view.servesModel(1, 1));
        std::map<size_t, size_t> model1;
        std::set<size_t> model0;
        for (uint64_t i = 0; i < 200; i++) {
            const uint16_t model = static_cast<uint16_t>(i % 2);
            const size_t m = policy->route(query(i, 10, model), view);
            view.flightAdd(m, model);
            if (model == 1)
                model1[m]++;
            else
                model0.insert(m);
        }
        ASSERT_EQ(model1.size(), 2u);
        EXPECT_EQ(model1.count(1) + model1.count(3), 2u);
        // Model 0 balances on its own in-flight signal over all four.
        EXPECT_EQ(model0.size(), 4u);
        EXPECT_EQ(view.inFlightQueriesOfModel(1, 1) +
                      view.inFlightQueriesOfModel(3, 1),
                  100u);
        for (size_t m = 0; m < 4; m++)
            EXPECT_EQ(view.inFlightQueriesOfModel(m, 0) +
                          view.inFlightQueriesOfModel(m, 1),
                      view.inFlightQueries(m));
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
                          gpu, policy, 0.05, m % 2 == 0 ? 1.0 : 1.3};
        machine.memoryBytes = 4'000'000'000ULL;
        cluster.machines.push_back(machine);
    }
    cluster.network.hopSeconds = 150e-6;
    cluster.network.gigabytesPerSecond = 12.5;
    // Second replicas are best effort here: some tables keep one copy,
    // so a crash can leave a query with no covering set (unroutable).
    const ShardPlacement placement = ShardPlacement::build(
        embeddingTables(modelConfig(ModelId::DlrmRmc2)),
        machineMemoryBudgets(cluster.machines),
        PlacementSpec{.minReplicas = 2});
    EXPECT_TRUE(placement.feasible());
    TableSetSpec table_set;
    table_set.numTables =
        static_cast<uint32_t>(modelConfig(ModelId::DlrmRmc2).numTables);
    table_set.tablesPerQuery = 8;
    cluster.sharding = ShardingConfig{placement, table_set};
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
        {RoutingKind::ModelAwareJsq, 0x1dbca913305b449bULL},
        {RoutingKind::ModelAwarePo2c, 0x8384b27b6a27d14aULL},
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

} // namespace
} // namespace deeprecsys
