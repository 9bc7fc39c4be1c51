/**
 * @file
 * Property tests for the overload-control layer (cluster/
 * admission.hh): decision-rule unit tests against a cluster view
 * whose engines hold hand-queued work, drop-path conservation through
 * the live cluster simulator (per machine and fleet-wide), the
 * all-machines-down path, monotonicity of goodput and shed
 * rate in offered load, flash-crowd conservation through the elastic
 * tier, and bitwise determinism of drop decisions across thread
 * counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>

#include "base/thread_pool.hh"
#include "bench/bench_common.hh"
#include "cluster/autoscaler.hh"
#include "cluster/cluster_qps_search.hh"
#include "cluster/cluster_sim.hh"
#include "loadgen/query_stream.hh"
#include "sim/machine_engine.hh"
#include "tests/fixtures.hh"

namespace deeprecsys {
namespace {

constexpr size_t kManyThreads = 8;

ClusterConfig
tier(size_t machines, OverloadConfig overload = {})
{
    ClusterConfig cfg;
    for (size_t m = 0; m < machines; m++)
        cfg.machines.push_back(cpuMachine());
    cfg.overload = overload;
    return cfg;
}

/** Measured max QPS of the N-machine RMC1 tier, computed once. */
double
tierCapacity(size_t machines)
{
    static std::map<size_t, double> cache;
    auto it = cache.find(machines);
    if (it != cache.end())
        return it->second;
    ClusterQpsSpec spec;
    spec.slaMs = 100.0;
    spec.routing.kind = RoutingKind::PowerOfTwoChoices;
    const double qps =
        findClusterMaxQps(tier(machines), spec).maxQps;
    cache[machines] = qps;
    return qps;
}

OverloadConfig
deadlinePolicy(bool degrade = false)
{
    OverloadConfig overload;
    overload.admission = AdmissionKind::Deadline;
    overload.deadlineSeconds = 0.1;
    overload.degrade = degrade;
    return overload;
}

/**
 * Fill machine @p m's queue in @p view up to @p requests queued
 * requests of @p batch samples each, behind a busy core pool, by
 * admitting parts to its engine as the cluster loop does: queue
 * pressure is their cost as the engine priced it. Only grows.
 */
void
fillQueue(ClusterView& view, size_t m, size_t requests, size_t batch)
{
    std::vector<EngineEvent> started;
    MachineEngine& engine = view.engine(m);
    PartSpec part;
    part.samples = static_cast<uint32_t>(batch);
    while (engine.queuedWork() < requests) {
        engine.admit(part, 0.0, started);
        part.partIdx++;
    }
}

// ------------------------------------------------------ decision rules

TEST(AdmissionUnit, IdleTierAdmitsEveryQueryAtFullSize)
{
    const ClusterConfig cfg = tier(3);
    const AdmissionController ctl(deadlinePolicy(true), cfg.machines);
    const ClusterView view(cfg.machines);
    for (uint32_t size : {1u, 64u, 256u, 500u}) {
        const AdmissionDecision d = ctl.decide(Query{0, 0.0, size}, view);
        EXPECT_TRUE(d.admit);
        EXPECT_EQ(d.servedSize, size);
        EXPECT_DOUBLE_EQ(d.quality, 1.0);
    }
    EXPECT_DOUBLE_EQ(ctl.meanBacklogSeconds(view), 0.0);
}

TEST(AdmissionUnit, DeadlineDropsWhenEveryMachineIsHopeless)
{
    const ClusterConfig cfg = tier(2);
    const AdmissionController ctl(deadlinePolicy(), cfg.machines);
    ClusterView view(cfg.machines);
    // Queues deep enough that draining them alone blows the deadline.
    for (size_t m = 0; m < 2; m++)
        fillQueue(view, m, 100000, 200);
    const AdmissionDecision d = ctl.decide(Query{0, 0.0, 128}, view);
    EXPECT_FALSE(d.admit);
    EXPECT_EQ(d.servedSize, 0u);
    EXPECT_DOUBLE_EQ(d.quality, 0.0);
    EXPECT_GT(ctl.meanBacklogSeconds(view), 0.1);
}

TEST(AdmissionUnit, QueueDepthCapCountsOnlyAcceptingMachines)
{
    OverloadConfig overload;
    overload.admission = AdmissionKind::QueueDepth;
    const ClusterConfig cfg = tier(2);
    const AdmissionController ctl(overload, cfg.machines);
    ClusterView view(cfg.machines);
    fillQueue(view, 0, 128, 200);   // twice the router's 64-item cap

    // Machine 1 is idle: under the cap somewhere, admit.
    EXPECT_TRUE(ctl.decide(Query{0, 0.0, 100}, view).admit);

    // The idle machine leaves the accepting set: every remaining
    // queue is over the cap, drop.
    view.setAccepting(1, false);
    EXPECT_FALSE(ctl.decide(Query{0, 0.0, 100}, view).admit);
}

TEST(AdmissionUnit, DegradeShrinksMonotonicallyWithPressure)
{
    const ClusterConfig cfg = tier(1);
    const AdmissionController ctl(deadlinePolicy(true), cfg.machines);
    const uint32_t size = 400;
    uint32_t last = size;
    ClusterView view(cfg.machines);
    for (size_t depth = 0; depth <= 400; depth += 25) {
        fillQueue(view, 0, depth, 150);
        const AdmissionDecision d = ctl.decide(Query{0, 0.0, size}, view);
        if (!d.admit)
            break; // pressure past the drop point: nothing to serve
        EXPECT_LE(d.servedSize, size);
        EXPECT_LE(d.servedSize, last) << "shrink must track pressure";
        EXPECT_GE(d.servedSize, ctl.config().minSize);
        EXPECT_GT(d.quality, 0.0);
        EXPECT_LE(d.quality, 1.0);
        last = d.servedSize;
    }
    // The sweep must have actually reached the degraded regime.
    EXPECT_LT(last, size);
}

TEST(AdmissionUnit, DegradeRescuesAQueryTheDeadlineWouldDrop)
{
    const ClusterConfig cfg = tier(1);
    const AdmissionController strict(deadlinePolicy(false), cfg.machines);
    const AdmissionController lenient(deadlinePolicy(true), cfg.machines);

    // Find a queue depth where the full-size query misses the
    // deadline but a shrunken one fits. A single-request size (below
    // the 256 batch) so shrinking actually cuts the service estimate.
    const Query q{0, 0.0, 200};
    bool rescued = false;
    ClusterView view(cfg.machines);
    for (size_t depth = 1; depth <= 2000 && !rescued; depth++) {
        fillQueue(view, 0, depth, 200);
        const AdmissionDecision hard = strict.decide(q, view);
        const AdmissionDecision soft = lenient.decide(q, view);
        if (!hard.admit && soft.admit) {
            EXPECT_LT(soft.servedSize, q.size);
            rescued = true;
        }
    }
    EXPECT_TRUE(rescued)
        << "no depth where degrade saves a would-be drop";
}

TEST(AdmissionUnit, DecisionIsPure)
{
    const ClusterConfig cfg = tier(2);
    const AdmissionController ctl(deadlinePolicy(true), cfg.machines);
    ClusterView view(cfg.machines);
    fillQueue(view, 0, 40, 180);
    fillQueue(view, 1, 90, 180);
    const Query q{7, 1.25, 310};
    const AdmissionDecision first = ctl.decide(q, view);
    for (int i = 0; i < 10; i++) {
        const AdmissionDecision again = ctl.decide(q, view);
        EXPECT_EQ(again.admit, first.admit);
        EXPECT_EQ(again.servedSize, first.servedSize);
        EXPECT_DOUBLE_EQ(again.quality, first.quality);
    }
}

// ------------------------------------------- conservation with drops

TEST(AdmissionCluster, ConservationWithDropsPerMachineAndFleetWide)
{
    const double capacity = tierCapacity(4);
    const QueryTrace trace = makeTrace(4000, 2.5 * capacity, 11);
    for (const bool degrade : {false, true}) {
        SCOPED_TRACE(degrade ? "deadline+degrade" : "deadline");
        const ClusterConfig cfg = tier(4, deadlinePolicy(degrade));
        const ClusterResult r = ClusterSimulator(cfg).run(
            trace, RoutingSpec{RoutingKind::PowerOfTwoChoices});

        // Fleet-wide: every offered query is dropped or dispatched,
        // and every dispatched query completes.
        EXPECT_EQ(r.overload.offered, trace.size());
        EXPECT_EQ(r.overload.dropped + r.numDispatched, trace.size());
        EXPECT_EQ(r.overload.admitted, r.numDispatched);
        EXPECT_EQ(r.numCompleted, r.numDispatched);
        EXPECT_GT(r.overload.dropped, 0u) << "2.5x load must shed";

        // Per machine: completions reconcile with the routed
        // assignment, drops with the sentinel.
        ASSERT_EQ(r.machineOfQuery.size(), trace.size());
        std::vector<uint64_t> routed(cfg.machines.size(), 0);
        uint64_t sentinels = 0;
        for (uint32_t m : r.machineOfQuery) {
            if (m == ClusterResult::droppedMachine)
                sentinels++;
            else
                routed[m]++;
        }
        EXPECT_EQ(sentinels, r.overload.dropped);
        uint64_t completed = 0;
        for (size_t m = 0; m < cfg.machines.size(); m++) {
            EXPECT_EQ(routed[m], r.perMachine[m].queriesDispatched);
            completed += r.perMachine[m].queriesCompleted;
        }
        EXPECT_EQ(completed, r.numCompleted);

        // The drop log names exactly the sentinel positions.
        ASSERT_EQ(r.overload.droppedQueries.size(), r.overload.dropped);
        EXPECT_TRUE(std::is_sorted(r.overload.droppedQueries.begin(),
                                   r.overload.droppedQueries.end()));
        for (uint64_t idx : r.overload.droppedQueries)
            EXPECT_EQ(r.machineOfQuery[idx],
                      ClusterResult::droppedMachine);

        // Degrade log: shrunken, never grown, and only when enabled.
        ASSERT_EQ(r.overload.degradedQueries.size(), r.overload.degraded);
        if (!degrade) {
            EXPECT_EQ(r.overload.degraded, 0u);
        }
        for (const DegradeRecord& rec : r.overload.degradedQueries) {
            EXPECT_LT(rec.servedSize, trace[rec.queryIdx].size);
            EXPECT_GE(rec.servedSize, cfg.overload.minSize);
        }
    }
}

// -------------------------------------------- retries and priorities

OverloadConfig
retryPolicy(uint32_t max_retries, uint32_t classes = 1)
{
    OverloadConfig overload = deadlinePolicy(true);
    overload.maxRetries = max_retries;
    overload.priorityClasses = classes;
    return overload;
}

TEST(AdmissionUnit, RetryDelayIsTheJitteredBackoffOrTheHint)
{
    // The client waits the larger of the Retry-After hint and the
    // backoff kRetryBackoffSeconds * kRetryBackoffFactor^attempt,
    // stretched by a jitter factor in [1, 1 + kRetryJitterFraction)
    // that is a pure function of (query id, attempt).
    for (uint32_t attempt = 0; attempt < 4; attempt++) {
        SCOPED_TRACE(attempt);
        const double backoff = kRetryBackoffSeconds *
            std::pow(kRetryBackoffFactor, attempt);
        double lo = std::numeric_limits<double>::infinity();
        double hi = 0.0;
        for (uint64_t id = 0; id < 1000; id++) {
            const double d = retryDelaySeconds(0.0, id, attempt);
            EXPECT_EQ(d, retryDelaySeconds(0.0, id, attempt));
            lo = std::min(lo, d);
            hi = std::max(hi, d);
            const double hinted = retryDelaySeconds(1.0, id, attempt);
            EXPECT_GE(hinted, 1.0);
            EXPECT_LT(hinted, 1.0 + kRetryJitterFraction);
        }
        EXPECT_GE(lo, backoff);
        EXPECT_LT(hi, backoff * (1.0 + kRetryJitterFraction));
        // The jitter spreads one burst's retries over most of its range.
        EXPECT_GT(hi - lo, 0.9 * backoff * kRetryJitterFraction);
    }
}

TEST(AdmissionCluster, EveryMachineDownIsUnroutableNotShed)
{
    // One machine, down about half the time: a query presented while
    // it is down has no machine to price against or route to. It is
    // unroutable and fails over (here, with no failovers allowed, it
    // is lost) whatever the admission policy; none is shed.
    ClusterConfig base = tier(1);
    base.faults.crashesPerHour = 3600.0;
    base.faults.repairSeconds = 2.0;
    const QueryTrace trace = makeTrace(4000, 200.0, 11);
    const RoutingSpec rr{RoutingKind::RoundRobin};
    const ClusterResult none = ClusterSimulator(base).run(trace, rr);
    EXPECT_GT(none.faults.unroutable, 0u);
    EXPECT_EQ(none.overload.dropped, 0u);

    OverloadConfig depth;
    depth.admission = AdmissionKind::QueueDepth;
    for (const OverloadConfig& overload :
         {depth, deadlinePolicy(false), deadlinePolicy(true)}) {
        ClusterConfig cfg = base;
        cfg.overload = overload;
        const ClusterResult r = ClusterSimulator(cfg).run(trace, rr);
        EXPECT_EQ(r.overload.dropped, 0u);
        EXPECT_EQ(r.numDispatched, none.numDispatched);
        EXPECT_EQ(r.faults.unroutable, none.faults.unroutable);
        EXPECT_EQ(r.faults.lost, none.faults.lost);
        EXPECT_EQ(r.numCompleted, none.numCompleted);
    }
}

TEST(AdmissionCluster, RetriesConserveOfferedLoad)
{
    // With client retries on, a shed query re-presents up to
    // maxRetries times; the books must close under the extended
    // algebra: every offered query ends admitted or finally dropped,
    // every refusal is either retried or final, and the drop log
    // names exactly the final drops.
    const double capacity = tierCapacity(4);
    const QueryTrace trace = makeTrace(4000, 2.2 * capacity, 11);
    // Hard drops (no degraded rescue), so the retry budget is really
    // spent: a steadily overloaded tier refuses the re-presentation
    // too and the query exhausts its attempts.
    OverloadConfig overload = deadlinePolicy(false);
    overload.maxRetries = 2;
    const ClusterConfig cfg = tier(4, overload);
    const ClusterResult r = ClusterSimulator(cfg).run(
        trace, RoutingSpec{RoutingKind::PowerOfTwoChoices});

    EXPECT_EQ(r.overload.offered, trace.size());
    EXPECT_EQ(r.overload.admitted + r.overload.droppedFinal,
              trace.size());
    EXPECT_EQ(r.overload.dropped,
              r.overload.retried + r.overload.droppedFinal);
    EXPECT_EQ(r.overload.admitted, r.numDispatched);
    EXPECT_EQ(r.numCompleted, r.numDispatched);
    EXPECT_GT(r.overload.retried, 0u) << "2.2x load must trigger retries";
    EXPECT_GT(r.overload.droppedFinal, 0u)
        << "retry budget must eventually exhaust";
    // Refusals exceed trace positions: retried queries re-present.
    EXPECT_GT(r.overload.dropped, r.overload.droppedFinal);

    ASSERT_EQ(r.overload.droppedQueries.size(), r.overload.droppedFinal);
    uint64_t sentinels = 0;
    for (uint32_t m : r.machineOfQuery)
        sentinels += m == ClusterResult::droppedMachine ? 1 : 0;
    EXPECT_EQ(sentinels, r.overload.droppedFinal);
    for (uint64_t idx : r.overload.droppedQueries)
        EXPECT_EQ(r.machineOfQuery[idx], ClusterResult::droppedMachine);
}

TEST(AdmissionCluster, PerClassStatsSumToTotalsAndShedOrdering)
{
    // Three priority classes assigned by stateless hash. At every
    // offered load the per-class books must sum to the fleet totals,
    // and the shed rate must be ordered: class 0 (most important)
    // never sheds more than class 1, class 1 never more than class 2
    // beyond statistical noise — the margin schedule sheds and
    // degrades the least important work first.
    const double capacity = tierCapacity(4);
    TraceTemplate tmpl{LoadSpec{}};
    tmpl.ensure(4000);
    const ClusterConfig cfg = tier(4, retryPolicy(1, 3));
    for (double mult : {1.4, 2.0, 2.8}) {
        SCOPED_TRACE(mult);
        QueryTrace trace = tmpl.materialize(mult * capacity, 4000);
        assignPriorityClasses(trace, 3, 0xc1a55);
        const ClusterResult r = ClusterSimulator(cfg).run(
            trace, RoutingSpec{RoutingKind::PowerOfTwoChoices});
        const OverloadStats& o = r.overload;
        ASSERT_EQ(o.perClass.size(), 3u);

        uint64_t offered = 0, admitted = 0, dropped = 0, final_ = 0;
        uint64_t retried = 0, degraded = 0, measured = 0, within = 0;
        double weight = 0.0, goodput = 0.0;
        for (const ClassOverloadStats& cs : o.perClass) {
            offered += cs.offered;
            admitted += cs.admitted;
            dropped += cs.dropped;
            final_ += cs.droppedFinal;
            retried += cs.retried;
            degraded += cs.degraded;
            measured += cs.measuredCompleted;
            within += cs.completedWithinDeadline;
            weight += cs.qualityWeight;
            goodput += cs.goodputQps;
        }
        EXPECT_EQ(offered, o.offered);
        EXPECT_EQ(admitted, o.admitted);
        EXPECT_EQ(dropped, o.dropped);
        EXPECT_EQ(final_, o.droppedFinal);
        EXPECT_EQ(retried, o.retried);
        EXPECT_EQ(degraded, o.degraded);
        EXPECT_EQ(measured, o.measuredCompleted);
        EXPECT_EQ(within, o.completedWithinDeadline);
        EXPECT_NEAR(weight, o.qualityWeight,
                    1e-9 * (1.0 + o.qualityWeight));
        EXPECT_NEAR(goodput, o.goodputQps, 1e-9 * (1.0 + o.goodputQps));

        for (size_t c = 0; c + 1 < o.perClass.size(); c++) {
            EXPECT_LE(o.perClass[c].shedRate(),
                      o.perClass[c + 1].shedRate() + 0.02)
                << "class " << c << " shed more than class " << c + 1;
        }
    }
}

// ------------------------------------------------------- monotonicity

TEST(AdmissionCluster, BaselineGoodputMonotoneNonIncreasingPastKnee)
{
    // Open-loop tier past its knee: more offered load only deepens
    // the queues, so within-deadline goodput must not rise. The
    // template re-times one drawn population so the comparison is
    // rate-only.
    const double capacity = tierCapacity(2);
    OverloadConfig accounting;
    accounting.deadlineSeconds = 0.1;
    const ClusterConfig cfg = tier(2, accounting);
    TraceTemplate tmpl{LoadSpec{}};
    tmpl.ensure(3000);
    double last = std::numeric_limits<double>::infinity();
    for (double mult : {1.2, 1.6, 2.0, 2.6}) {
        const QueryTrace trace = tmpl.materialize(mult * capacity, 3000);
        const ClusterResult r = ClusterSimulator(cfg).run(
            trace, RoutingSpec{RoutingKind::PowerOfTwoChoices});
        EXPECT_EQ(r.overload.dropped, 0u) << "baseline never sheds";
        EXPECT_LE(r.overload.goodputQps, last * 1.02)
            << "goodput rose past the knee at " << mult << "x";
        last = r.overload.goodputQps;
    }
    EXPECT_LT(last, 0.5 * capacity)
        << "goodput failed to collapse at 2.6x load";
}

TEST(AdmissionCluster, ShedRateMonotoneNonDecreasingInOfferedLoad)
{
    const double capacity = tierCapacity(2);
    const ClusterConfig cfg = tier(2, deadlinePolicy());
    TraceTemplate tmpl{LoadSpec{}};
    tmpl.ensure(3000);
    double last = 0.0;
    for (double mult : {0.5, 1.2, 1.6, 2.0, 2.6}) {
        const QueryTrace trace = tmpl.materialize(mult * capacity, 3000);
        const ClusterResult r = ClusterSimulator(cfg).run(
            trace, RoutingSpec{RoutingKind::PowerOfTwoChoices});
        EXPECT_GE(r.overload.shedRate(), last)
            << "shed rate fell as offered load rose at " << mult << "x";
        last = r.overload.shedRate();
    }
    EXPECT_GT(last, 0.0) << "2.6x load must shed";
}

// ---------------------------------------------- elastic-tier coverage

TEST(AdmissionAutoscale, FlashCrowdConservesAndKeepsGoodput)
{
    // A cold elastic tier hit by a rate step sheds through the
    // warm-up gap; drops must reconcile exactly even while machines
    // join mid-run.
    AutoscaleSpec spec;
    spec.cluster = tier(6, deadlinePolicy(true));
    spec.routing.kind = RoutingKind::PowerOfTwoChoices;
    spec.slaMs = 100.0;
    spec.controlIntervalSeconds = 0.25;
    spec.warmupDelaySeconds = 0.5;
    spec.initialMachines = 2;

    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Reactive;
    policy.minMachines = 2;

    // The drawn population arrives calmly, then the tail is
    // compressed to a 4x rate step.
    const double base = 0.3 * tierCapacity(2);
    QueryTrace trace = makeTrace(6000, base, 11);
    const size_t step = trace.size() / 3;
    const double t0 = trace[step].arrivalSeconds;
    for (size_t i = step; i < trace.size(); i++)
        trace[i].arrivalSeconds = t0 + (trace[i].arrivalSeconds - t0) / 4.0;

    const AutoscaleResult r = Autoscaler(spec).run(trace, policy);
    EXPECT_EQ(r.overload.offered, trace.size());
    EXPECT_EQ(r.overload.dropped + r.numDispatched, trace.size());
    EXPECT_EQ(r.numCompleted, r.numDispatched);
    EXPECT_GT(r.overload.dropped, 0u) << "the cold gap must shed";
    EXPECT_GT(r.overload.goodputQps, 0.0);
    EXPECT_GT(r.maxServingMachines, spec.initialMachines)
        << "drops must drive scale-up";

    // Windowed drop counters never exceed the ground-truth total.
    uint64_t windowed = 0;
    for (const AutoscaleWindow& w : r.timeline)
        windowed += w.drops;
    EXPECT_LE(windowed, r.overload.dropped);
    EXPECT_GT(windowed, 0u);
}

// -------------------------------------------------------- determinism

TEST(AdmissionDiff, DropDecisionsBitwiseAcrossThreadCounts)
{
    // Admission decisions feed routing, so one flipped drop would
    // cascade; the whole decision trace must be bit-identical at
    // DRS_THREADS=1 and many threads.
    const double capacity = tierCapacity(2);
    const ClusterConfig degrade_cfg = tier(2, deadlinePolicy(true));
    const ClusterConfig drop_cfg = tier(2, deadlinePolicy(false));

    auto runAll = [&]() {
        std::vector<double> cells = {0.8 * capacity, 1.7 * capacity,
                                     2.4 * capacity};
        return bench::sweepMap(cells, [&](double qps) {
            const QueryTrace trace = makeTrace(2500, qps, 11);
            std::vector<ClusterResult> out;
            for (const ClusterConfig& cfg : {degrade_cfg, drop_cfg})
                out.push_back(ClusterSimulator(cfg).run(
                    trace, RoutingSpec{RoutingKind::PowerOfTwoChoices}));
            return out;
        });
    };

    ThreadPool::setSharedThreads(1);
    const auto serial = runAll();
    ThreadPool::setSharedThreads(kManyThreads);
    const auto parallel = runAll();
    ThreadPool::setSharedThreads(1);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t c = 0; c < serial.size(); c++) {
        ASSERT_EQ(serial[c].size(), parallel[c].size());
        for (size_t i = 0; i < serial[c].size(); i++) {
            const ClusterResult& a = serial[c][i];
            const ClusterResult& b = parallel[c][i];
            EXPECT_EQ(a.overload.dropped, b.overload.dropped);
            EXPECT_EQ(a.overload.droppedQueries, b.overload.droppedQueries);
            EXPECT_EQ(a.overload.degradedQueries,
                      b.overload.degradedQueries);
            EXPECT_EQ(a.machineOfQuery, b.machineOfQuery);
            ASSERT_EQ(a.fleetLatencySeconds.count(), b.fleetLatencySeconds.count());
            EXPECT_DOUBLE_EQ(a.fleetLatencySeconds.sum(),
                             b.fleetLatencySeconds.sum());
            EXPECT_DOUBLE_EQ(a.overload.goodputQps,
                             b.overload.goodputQps);
        }
    }
}

TEST(AdmissionDiff, RetryAndPriorityDecisionsBitwiseAcrossThreadCounts)
{
    // The retry re-timer and the priority margins are pure functions
    // of (query, attempt, class); the full decision trace — final
    // drops, retries, degrades, per-class books — must be
    // bit-identical at DRS_THREADS=1 and many threads.
    const double capacity = tierCapacity(2);
    const ClusterConfig cfg = tier(2, retryPolicy(2, 3));

    auto runAll = [&]() {
        std::vector<double> cells = {1.3 * capacity, 2.1 * capacity,
                                     2.7 * capacity};
        return bench::sweepMap(cells, [&](double qps) {
            QueryTrace trace = makeTrace(2500, qps, 11);
            assignPriorityClasses(trace, 3, 0xc1a55);
            return ClusterSimulator(cfg).run(
                trace, RoutingSpec{RoutingKind::PowerOfTwoChoices});
        });
    };

    ThreadPool::setSharedThreads(1);
    const auto serial = runAll();
    ThreadPool::setSharedThreads(kManyThreads);
    const auto parallel = runAll();
    ThreadPool::setSharedThreads(1);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t c = 0; c < serial.size(); c++) {
        const OverloadStats& a = serial[c].overload;
        const OverloadStats& b = parallel[c].overload;
        EXPECT_EQ(a.dropped, b.dropped);
        EXPECT_EQ(a.droppedFinal, b.droppedFinal);
        EXPECT_EQ(a.retried, b.retried);
        EXPECT_EQ(a.droppedQueries, b.droppedQueries);
        EXPECT_EQ(a.degradedQueries, b.degradedQueries);
        EXPECT_EQ(serial[c].machineOfQuery, parallel[c].machineOfQuery);
        EXPECT_DOUBLE_EQ(a.goodputQps, b.goodputQps);
        ASSERT_EQ(a.perClass.size(), b.perClass.size());
        for (size_t k = 0; k < a.perClass.size(); k++) {
            EXPECT_EQ(a.perClass[k].offered, b.perClass[k].offered);
            EXPECT_EQ(a.perClass[k].droppedFinal,
                      b.perClass[k].droppedFinal);
            EXPECT_EQ(a.perClass[k].retried, b.perClass[k].retried);
            EXPECT_EQ(a.perClass[k].degraded, b.perClass[k].degraded);
            EXPECT_DOUBLE_EQ(a.perClass[k].goodputQps,
                             b.perClass[k].goodputQps);
        }
    }
}

// ----------------------------------------- 16-bit priority classes

TEST(AdmissionDeath, PriorityClassCountOutsideSixteenBitsIsAConfigError)
{
    const ClusterConfig cfg = tier(2);
    for (uint32_t classes : {0u, kMaxPriorityClasses + 1}) {
        SCOPED_TRACE(classes);
        OverloadConfig overload = deadlinePolicy();
        overload.priorityClasses = classes;
        EXPECT_EXIT(AdmissionController(overload, cfg.machines),
                    ::testing::ExitedWithCode(1), "outside 1..65536");
        EXPECT_EXIT(ClusterSimulator{tier(2, overload)},
                    ::testing::ExitedWithCode(1), "outside 1..65536");
        QueryTrace trace = makeTrace(10, 100.0, 11);
        EXPECT_EXIT(assignPriorityClasses(trace, classes, 1),
                    ::testing::ExitedWithCode(1), "outside 1..65536");
    }
}

// ------------------------------------------ 32-bit degrade records

TEST(AdmissionDeath, TraceBeyondThirtyTwoBitIndicesIsRefused)
{
    // A DegradeRecord holds its trace index in 32 bits; a longer
    // trace cannot be built in a test, so check the validator the
    // cluster loop calls at run start.
    validateTraceLength(0);
    validateTraceLength(kMaxTraceQueries);
    EXPECT_EXIT(validateTraceLength(kMaxTraceQueries + 1),
                ::testing::ExitedWithCode(1),
                "4294967296 queries exceeds the 4294967295");
}

// ------------------------------------- overload config errors at build

/** One overload config error the cluster facades must refuse. */
struct BadOverload
{
    const char* name;
    void (*spoil)(OverloadConfig&);
    const char* message;
};

void
PrintTo(const BadOverload& bad, std::ostream* os)
{
    *os << bad.name;
}

class AdmissionConfigDeath : public ::testing::TestWithParam<BadOverload>
{
};

TEST_P(AdmissionConfigDeath, RefusedWhenAFacadeIsBuilt)
{
    OverloadConfig overload = deadlinePolicy();
    GetParam().spoil(overload);
    EXPECT_EXIT(ClusterSimulator{tier(2, overload)},
                ::testing::ExitedWithCode(1), GetParam().message);
    AutoscaleSpec spec;
    spec.cluster = tier(2, overload);
    EXPECT_EXIT(Autoscaler{spec}, ::testing::ExitedWithCode(1),
                GetParam().message);
}

INSTANTIATE_TEST_SUITE_P(
    OverloadChecks, AdmissionConfigDeath,
    ::testing::Values(
        BadOverload{"DeadlineZero",
                    [](OverloadConfig& o) { o.deadlineSeconds = 0.0; },
                    "deadline admission/degrade needs deadlineSeconds > 0"},
        BadOverload{"PriorityMarginShutsOutTheLowestClass",
                    [](OverloadConfig& o) { o.priorityClasses = 8; },
                    "8 priority classes exceed the 7 the priority margin "
                    "allows"}),
    [](const ::testing::TestParamInfo<BadOverload>& info) {
        return std::string(info.param.name);
    });

TEST(Admission, WidestPriorityClassCountFitsEveryQuery)
{
    QueryTrace trace = makeTrace(2000, 100.0, 11);
    assignPriorityClasses(trace, kMaxPriorityClasses, 0xc1a55);
    // Classes are hash % 65536: all 16 bits in use, none truncated.
    uint16_t top = 0;
    for (const Query& q : trace)
        top = std::max(top, q.priorityClass);
    EXPECT_GT(top, 60000u);
    // An enabled router takes up to OverloadConfig::maxPriorityClasses
    // (7: one more would leave the lowest class no budget) and clamps
    // every wider class into its lowest one.
    OverloadConfig overload = deadlinePolicy();
    overload.priorityClasses = OverloadConfig::maxPriorityClasses;
    const ClusterResult r = ClusterSimulator(tier(2, overload))
                                .run(trace, {RoutingKind::RoundRobin, 0, 0});
    ASSERT_EQ(r.overload.perClass.size(), OverloadConfig::maxPriorityClasses);
    EXPECT_EQ(r.overload.offered, trace.size());
    uint64_t offered = 0;
    for (const ClassOverloadStats& cs : r.overload.perClass)
        offered += cs.offered;
    EXPECT_EQ(offered, trace.size());
    EXPECT_GT(r.overload.perClass.back().offered,
              r.overload.perClass.front().offered);
}

} // namespace
} // namespace deeprecsys
