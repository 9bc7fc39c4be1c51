/**
 * @file
 * Parallel-vs-serial differential tests: the determinism contract of
 * the parallel runtime. The bench sweep helper maps independent runs
 * across threads, set-up draws embedding tables and trace templates
 * as tasks, and the two QPS searches, the capacity planner and the
 * trace template they re-time must give the same answer whatever the
 * shared pool's size — so every result must be **bit-identical** at
 * DRS_THREADS=1 and at many threads. Threads decide only which
 * thread runs a sweep's point, never which results come back or in
 * what order.
 *
 * The shared pool is resized in-process between runs; each assertion
 * uses exact equality (EXPECT_DOUBLE_EQ / EXPECT_EQ), not tolerances.
 */

#include <gtest/gtest.h>

#include "base/thread_pool.hh"
#include "bench/bench_common.hh"
#include "cluster/capacity_planner.hh"
#include "cluster/cluster_qps_search.hh"
#include "loadgen/query_stream.hh"
#include "models/rec_model.hh"
#include "sim/qps_search.hh"

namespace deeprecsys {
namespace {

constexpr size_t kManyThreads = 8;

SimConfig
cpuMachine(size_t batch = 256)
{
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc1);
    SchedulerPolicy policy;
    policy.perRequestBatch = batch;
    return SimConfig{CpuCostModel(profile, CpuPlatform::skylake()),
                     std::nullopt, policy};
}

/** Run fn twice — serial pool, then @p threads — returning both. */
template <typename Fn>
auto
atBothThreadCounts(Fn fn, size_t threads = kManyThreads)
{
    ThreadPool::setSharedThreads(1);
    auto serial = fn();
    ThreadPool::setSharedThreads(threads);
    auto parallel = fn();
    ThreadPool::setSharedThreads(1);
    return std::make_pair(std::move(serial), std::move(parallel));
}

void
expectSameSimResult(const SimResult& a, const SimResult& b)
{
    EXPECT_EQ(a.numQueries, b.numQueries);
    EXPECT_EQ(a.numRequests, b.numRequests);
    EXPECT_DOUBLE_EQ(a.spanSeconds, b.spanSeconds);
    EXPECT_DOUBLE_EQ(a.offeredQps, b.offeredQps);
    EXPECT_DOUBLE_EQ(a.achievedQps, b.achievedQps);
    EXPECT_DOUBLE_EQ(a.cpuBusyCoreSeconds, b.cpuBusyCoreSeconds);
    EXPECT_DOUBLE_EQ(a.cpuUtilization, b.cpuUtilization);
    EXPECT_DOUBLE_EQ(a.gpuBusySeconds, b.gpuBusySeconds);
    EXPECT_DOUBLE_EQ(a.gpuUtilization, b.gpuUtilization);
    EXPECT_DOUBLE_EQ(a.gpuWorkFraction, b.gpuWorkFraction);
    ASSERT_EQ(a.queryLatencySeconds.count(), b.queryLatencySeconds.count());
    EXPECT_DOUBLE_EQ(a.queryLatencySeconds.sum(),
                     b.queryLatencySeconds.sum());
    EXPECT_DOUBLE_EQ(a.p95Ms(), b.p95Ms());
    EXPECT_DOUBLE_EQ(a.p99Ms(), b.p99Ms());
}

void
expectSameClusterResult(const ClusterResult& a, const ClusterResult& b)
{
    EXPECT_EQ(a.numQueries, b.numQueries);
    EXPECT_EQ(a.numDispatched, b.numDispatched);
    EXPECT_EQ(a.numCompleted, b.numCompleted);
    EXPECT_EQ(a.numParts, b.numParts);
    EXPECT_DOUBLE_EQ(a.meanFanout, b.meanFanout);
    EXPECT_DOUBLE_EQ(a.offeredQps, b.offeredQps);
    EXPECT_DOUBLE_EQ(a.achievedQps, b.achievedQps);
    EXPECT_DOUBLE_EQ(a.spanSeconds, b.spanSeconds);
    EXPECT_DOUBLE_EQ(a.meanCpuUtilization, b.meanCpuUtilization);
    ASSERT_EQ(a.fleetLatencySeconds.count(), b.fleetLatencySeconds.count());
    EXPECT_DOUBLE_EQ(a.fleetLatencySeconds.sum(),
                     b.fleetLatencySeconds.sum());
    EXPECT_DOUBLE_EQ(a.p95Ms(), b.p95Ms());
    EXPECT_DOUBLE_EQ(a.p99Ms(), b.p99Ms());
    EXPECT_EQ(a.machineOfQuery, b.machineOfQuery);
    ASSERT_EQ(a.perMachine.size(), b.perMachine.size());
    for (size_t m = 0; m < a.perMachine.size(); m++) {
        EXPECT_EQ(a.perMachine[m].queriesCompleted,
                  b.perMachine[m].queriesCompleted);
        EXPECT_EQ(a.perMachine[m].requestsDispatched,
                  b.perMachine[m].requestsDispatched);
        EXPECT_DOUBLE_EQ(a.perMachine[m].busyCoreSeconds,
                         b.perMachine[m].busyCoreSeconds);
    }
}

ClusterConfig
smallCluster(size_t machines = 6)
{
    ClusterConfig cluster;
    for (size_t m = 0; m < machines; m++) {
        SimConfig machine = cpuMachine();
        machine.slowdown = m % 2 == 0 ? 1.0 : 1.3;
        cluster.machines.push_back(machine);
    }
    return cluster;
}

TEST(ParallelDiff, TraceTemplateMatchesQueryStreamBitwise)
{
    // The foundation of the trace-reuse optimization: a re-timed
    // template is indistinguishable from a freshly generated trace.
    for (SizeDistKind sizes : {SizeDistKind::Production,
                               SizeDistKind::Lognormal,
                               SizeDistKind::Normal}) {
        for (uint64_t seed : {1u, 29u}) {
            LoadSpec load;
            load.sizes = sizes;
            load.arrivalSeed = seed;
            load.sizeSeed = seed + 1;
            TraceTemplate tpl(load);
            tpl.ensure(2000);
            for (double qps : {37.5, 600.0, 12345.0}) {
                LoadSpec at_rate = load;
                at_rate.qps = qps;
                QueryStream stream(at_rate);
                const QueryTrace fresh = stream.generate(2000);
                const QueryTrace retimed = tpl.materialize(qps, 2000);
                ASSERT_EQ(fresh.size(), retimed.size());
                for (size_t i = 0; i < fresh.size(); i++) {
                    EXPECT_EQ(fresh[i].arrivalSeconds,
                              retimed[i].arrivalSeconds)
                        << "arrival " << i << " at qps " << qps;
                    EXPECT_EQ(fresh[i].size, retimed[i].size);
                    EXPECT_EQ(fresh[i].id, retimed[i].id);
                }
            }
        }
    }
}

TEST(ParallelDiff, TraceTemplatePrefixStableUnderGrowth)
{
    LoadSpec load;
    TraceTemplate grown(load);
    grown.ensure(500);
    const QueryTrace before = grown.materialize(100.0, 500);
    grown.ensure(1500);
    const QueryTrace after = grown.materialize(100.0, 500);
    for (size_t i = 0; i < 500; i++)
        EXPECT_EQ(before[i].arrivalSeconds, after[i].arrivalSeconds);
}

TEST(ParallelDiff, ZooForwardOutputsBitwiseEqualAcrossThreadCounts)
{
    // A model's embedding tables fill in parallel from jumped streams,
    // and the layers built after them draw from where the tables leave
    // the stream: every output bit must match the serial build's.
    auto outputs = [] {
        std::vector<std::vector<float>> out;
        for (const ModelScale& scale : {ModelScale{}, ModelScale::tiny()}) {
            for (ModelId id : allModelIds()) {
                const RecModel model(modelConfig(id), 5, scale);
                Rng rng(17);
                for (size_t size : {1, 64}) {
                    const Tensor y = model.forward(model.makeBatch(size, rng));
                    out.emplace_back(y.data(), y.data() + y.numel());
                }
            }
        }
        return out;
    };
    const auto [serial, parallel] = atBothThreadCounts(outputs, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); i++)
        EXPECT_EQ(serial[i], parallel[i]) << "output " << i;
}

TEST(ParallelDiff, MixedTraceTemplateBitwiseEqualAcrossThreadCounts)
{
    // Each model's template, and within it the gap and size streams,
    // draw as tasks of their own; growing the template draws again.
    auto trace = [] {
        LoadSpec base;
        base.arrivalSeed = 30;
        base.sizeSeed = 31;
        MixedTraceTemplate mixed(base, {0.4, 0.4, 0.2});
        mixed.ensure(1000);
        mixed.ensure(6000);
        return mixed.materialize(2400.0, 6000);
    };
    const auto [serial, parallel] = atBothThreadCounts(trace, 4);
    ASSERT_EQ(serial.size(), 6000u);
    ASSERT_EQ(parallel.size(), 6000u);
    for (size_t i = 0; i < serial.size(); i++) {
        EXPECT_EQ(serial[i].id, parallel[i].id);
        EXPECT_EQ(serial[i].model, parallel[i].model);
        EXPECT_EQ(serial[i].size, parallel[i].size);
        EXPECT_EQ(serial[i].arrivalSeconds, parallel[i].arrivalSeconds)
            << "query " << i;
    }
}

TEST(ParallelDiff, FindMaxQpsBitwiseEqualAcrossThreadCounts)
{
    QpsSearchSpec spec;
    spec.slaMs = 100.0;
    spec.numQueries = 1500;
    const auto [serial, parallel] = atBothThreadCounts(
        [&] { return findMaxQps(cpuMachine(), spec); });
    EXPECT_DOUBLE_EQ(serial.maxQps, parallel.maxQps);
    EXPECT_EQ(serial.evaluations, parallel.evaluations);
    expectSameSimResult(serial.atMax, parallel.atMax);
}

TEST(ParallelDiff, FindMaxQpsInfeasibleCaseAgrees)
{
    QpsSearchSpec spec;
    spec.slaMs = 0.01;    // below any single-request service time
    spec.numQueries = 800;
    const auto [serial, parallel] = atBothThreadCounts(
        [&] { return findMaxQps(cpuMachine(), spec); });
    EXPECT_DOUBLE_EQ(serial.maxQps, 0.0);
    EXPECT_DOUBLE_EQ(parallel.maxQps, 0.0);
    EXPECT_EQ(serial.evaluations, parallel.evaluations);
}

TEST(ParallelDiff, FindClusterMaxQpsBitwiseEqualAcrossThreadCounts)
{
    ClusterQpsSpec spec;
    spec.slaMs = 100.0;
    spec.numQueries = 2400;
    spec.routing.kind = RoutingKind::JoinShortestQueue;
    const ClusterConfig cluster = smallCluster();
    const auto [serial, parallel] = atBothThreadCounts(
        [&] { return findClusterMaxQps(cluster, spec); });
    EXPECT_DOUBLE_EQ(serial.maxQps, parallel.maxQps);
    EXPECT_EQ(serial.evaluations, parallel.evaluations);
    expectSameClusterResult(serial.atMax, parallel.atMax);
}

TEST(ParallelDiff, PlanCapacityBitwiseEqualAcrossThreadCounts)
{
    CapacityPlanSpec spec;
    spec.unitMachines = {cpuMachine()};
    spec.targetQps = 6000.0;
    spec.slaMs = 100.0;
    spec.queriesPerMachine = 250;
    spec.minQueries = 1500;
    spec.maxUnits = 64;
    const auto [serial, parallel] = atBothThreadCounts(
        [&] { return planCapacity(spec); });
    EXPECT_EQ(serial.feasible, parallel.feasible);
    EXPECT_EQ(serial.units, parallel.units);
    EXPECT_EQ(serial.machines, parallel.machines);
    EXPECT_EQ(serial.evaluations, parallel.evaluations);
    EXPECT_EQ(serial.minUnitsForMemory, parallel.minUnitsForMemory);
    expectSameClusterResult(serial.atPlan, parallel.atPlan);
}

TEST(ParallelDiff, SweepHelperBitwiseEqualAndInputOrdered)
{
    // The bench sweep helper: per-point simulations at two thread
    // counts must agree exactly and stay in input order.
    const std::vector<double> rates = {200.0, 400.0, 800.0,
                                       600.0, 100.0};
    auto sweep = [&] {
        return bench::sweepMap(rates, [&](double qps) {
            LoadSpec load;
            return evaluateAtQps(cpuMachine(), load, qps, 600);
        });
    };
    const auto [serial, parallel] = atBothThreadCounts(sweep);
    ASSERT_EQ(serial.size(), rates.size());
    ASSERT_EQ(parallel.size(), rates.size());
    for (size_t i = 0; i < rates.size(); i++) {
        // Input order, not completion order: each row must match its
        // own offered rate.
        EXPECT_NEAR(serial[i].offeredQps, rates[i], 0.2 * rates[i]);
        expectSameSimResult(serial[i], parallel[i]);
    }
}

TEST(ParallelDiff, SearchMatchesManualEvaluationAtFoundRate)
{
    // The result the search hands back is a real evaluation at the
    // found rate: re-simulating that rate with the same population
    // reproduces it bit-for-bit.
    QpsSearchSpec spec;
    spec.slaMs = 100.0;
    spec.numQueries = 1500;
    ThreadPool::setSharedThreads(kManyThreads);
    const QpsSearchResult found = findMaxQps(cpuMachine(), spec);
    ThreadPool::setSharedThreads(1);
    ASSERT_GT(found.maxQps, 0.0);
    TraceTemplate tpl(spec.load);
    tpl.ensure(spec.numQueries);
    ServingSimulator sim(cpuMachine());
    const SimResult redo =
        sim.run(tpl.materialize(found.maxQps, spec.numQueries));
    expectSameSimResult(found.atMax, redo);
}

} // namespace
} // namespace deeprecsys
