/**
 * @file
 * Tests for the cluster routing policies.
 */

#include <gtest/gtest.h>

#include <set>

#include "cluster/routing_policy.hh"
#include "loadgen/query_stream.hh"

namespace deeprecsys {
namespace {

/** Hand-settable cluster view for policy unit tests. */
class FakeView final : public ClusterView
{
  public:
    explicit FakeView(size_t n)
        : inFlight(n, 0), queued(n, 0), gpu(n, false), speed(n, 1.0)
    {
    }

    size_t numMachines() const override { return inFlight.size(); }
    size_t inFlightQueries(size_t m) const override { return inFlight[m]; }
    size_t queuedWork(size_t m) const override { return queued[m]; }
    bool hasGpu(size_t m) const override { return gpu[m]; }
    double speedFactor(size_t m) const override { return speed[m]; }

    std::vector<size_t> inFlight;
    std::vector<size_t> queued;
    std::vector<bool> gpu;
    std::vector<double> speed;
};

Query
query(uint64_t id, uint32_t size = 10)
{
    Query q;
    q.id = id;
    q.arrivalSeconds = static_cast<double>(id) * 1e-3;
    q.size = size;
    return q;
}

/**
 * Route every query of @p global through @p policy, counting each
 * dispatch as in flight on @p view (nothing completes), and return
 * the per-machine slices.
 */
std::vector<QueryTrace>
dealTrace(const QueryTrace& global, FakeView& view, RoutingPolicy& policy)
{
    std::vector<QueryTrace> slices(view.numMachines());
    for (const Query& q : global) {
        const size_t m = policy.route(q, view);
        slices.at(m).push_back(q);
        view.inFlight[m]++;
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
    FakeView view(4);
    for (uint64_t i = 0; i < 12; i++)
        EXPECT_EQ(policy->route(query(i), view), i % 4);
}

TEST(RoutingPolicy, UniformRandomCoversAllMachines)
{
    const auto policy =
        makeRoutingPolicy({RoutingKind::UniformRandom, 99, 0});
    FakeView view(8);
    std::set<size_t> seen;
    for (uint64_t i = 0; i < 400; i++)
        seen.insert(policy->route(query(i), view));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RoutingPolicy, JsqPicksLeastLoaded)
{
    const auto policy =
        makeRoutingPolicy({RoutingKind::JoinShortestQueue, 0, 0});
    FakeView view(4);
    view.inFlight = {5, 2, 7, 3};
    EXPECT_EQ(policy->route(query(0), view), 1u);
    view.queued[1] = 10;    // queued work counts toward load
    EXPECT_EQ(policy->route(query(1), view), 3u);
}

TEST(RoutingPolicy, JsqNormalizesBySpeed)
{
    const auto policy =
        makeRoutingPolicy({RoutingKind::JoinShortestQueue, 0, 0});
    FakeView view(2);
    // Machine 0 has fewer jobs but is 4x slower: expected delay is
    // higher, so the faster machine 1 wins.
    view.inFlight = {3, 8};
    view.speed = {0.25, 1.0};
    EXPECT_EQ(policy->route(query(0), view), 1u);
}

TEST(RoutingPolicy, PowerOfTwoAvoidsOverloadedMachine)
{
    const auto policy =
        makeRoutingPolicy({RoutingKind::PowerOfTwoChoices, 7, 0});
    FakeView view(6);
    view.inFlight = {1000, 0, 0, 0, 0, 0};
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
    FakeView view(6);
    view.gpu = {false, false, true, false, true, false};
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
    FakeView view(3);    // no GPUs anywhere
    for (uint64_t i = 0; i < 30; i++)
        EXPECT_LT(policy->route(query(i, 500), view), 3u);
}

TEST(SplitTrace, RoundRobinSplitsEvenly)
{
    const QueryTrace global = productionTrace(800);
    const auto policy = makeRoutingPolicy({RoutingKind::RoundRobin, 0, 0});
    FakeView view(8);
    const std::vector<QueryTrace> slices = dealTrace(global, view, *policy);
    for (const QueryTrace& slice : slices)
        EXPECT_EQ(slice.size(), 100u);
}

TEST(SplitTrace, DeterministicForEqualSeeds)
{
    const QueryTrace global = productionTrace(500);
    const auto a = makeRoutingPolicy({RoutingKind::UniformRandom, 42, 0});
    const auto b = makeRoutingPolicy({RoutingKind::UniformRandom, 42, 0});
    FakeView view_a(5);
    FakeView view_b(5);
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

    FakeView view(4);
    view.gpu[3] = true;
    const auto slices = dealTrace(global, view, *policy);
    for (size_t m = 0; m < 3; m++) {
        for (const Query& q : slices[m])
            EXPECT_LT(q.size, 200u);
    }
    for (const Query& q : slices[3])
        EXPECT_GE(q.size, 200u);
}

} // namespace
} // namespace deeprecsys
