/**
 * @file
 * Tests for the cluster drivers' query book, which keeps each query's
 * parts inside its record (cluster/query_book.hh; the pool itself is
 * tested in test_query_book.cc): the drivers' exact peak-held query
 * counters on a sharded, hedged, chaotic, colocated tier, and the
 * stale-read cases, where a reader reaches a query long after its
 * last part ended and a release that came early would panic on a
 * stale handle: a shed query awaiting its retry, a failover backoff, a
 * hedge check that fires after its query completed, a lost query
 * outlived by its parts and their hedge twins (both tiers), and an
 * unroutable query with no parts. A gray straggler holds its queries
 * while few records stay held. Last, the flat book of per-query part
 * machines the static driver fills, in trace order, as queries are
 * released.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <sstream>

#include "bench/bench_common.hh"
#include "tests/busy_tier.hh"

namespace deeprecsys {
namespace {

// ------------------------------------------ the drivers' work counter

TEST(PartBookDriver, StaticPeakLivePartsIsExactAndSmall)
{
    ClusterConfig cfg = busyTier();
    cfg.hedge.delaySeconds = 0.01;
    const QueryTrace trace = busyTrace();
    const ClusterResult r = runStatic(cfg, trace);

    // The run exercises what it claims to.
    EXPECT_GT(r.faults.crashes, 0u);
    EXPECT_GT(r.faults.failovers, 0u);
    EXPECT_GT(r.faults.hedged, 0u);
    EXPECT_EQ(trace.size(),
              r.numCompleted + r.overload.droppedFinal + r.faults.lost);

    // Queries are released out of order, parts and all, as soon as no
    // reader can reach them: a late release point, or a part that
    // never ends, moves this.
    EXPECT_EQ(r.peakHeldQueries, 49u);
    // The flat part-machine book holds one 4-byte offset per query
    // plus one and one 2-byte machine id per part, plus under one
    // chunk: a book that grows by doubling, copies itself as it grows
    // or stores wider ids moves this.
    const size_t content = (trace.size() + 1) * sizeof(uint32_t) +
        r.numParts * sizeof(uint16_t);
    EXPECT_EQ(r.partMachinesOfQuery.bytes(), 89540u);
    EXPECT_LE(r.partMachinesOfQuery.bytes(),
              content + decltype(r.partMachinesOfQuery)::kChunkBytes);
}

TEST(PartBookDriver, ElasticPeakLivePartsIsExactAndSmall)
{
    const QueryTrace trace = busyTrace();
    const AutoscaleResult r = runElastic(elasticSpec(busyTier()), trace);

    EXPECT_GT(r.faults.crashes, 0u);
    EXPECT_GT(r.faults.failovers, 0u);
    EXPECT_EQ(trace.size(),
              r.numCompleted + r.overload.droppedFinal + r.faults.lost);

    EXPECT_EQ(r.peakHeldQueries, 45u);
}

// ------------------------------------------------ the query book

/** Offered == completed + finally dropped + lost, in exact counts. */
template <typename Result>
void
expectConserved(const Result& r, const QueryTrace& trace)
{
    EXPECT_EQ(r.overload.offered, trace.size());
    EXPECT_EQ(trace.size(),
              r.numCompleted + r.overload.droppedFinal + r.faults.lost);
}

TEST(QueryBookDriver, StaticPeakLiveQueriesIsExactAndSmall)
{
    ClusterConfig cfg = retryTier();
    cfg.hedge.delaySeconds = 0.01;
    const QueryTrace trace = busyTrace();
    const ClusterResult r = runStatic(cfg, trace);

    EXPECT_GT(r.faults.crashes, 0u);
    EXPECT_GT(r.faults.failovers, 0u);
    EXPECT_GT(r.faults.hedged, 0u);
    EXPECT_GT(r.overload.retried, 0u);
    expectConserved(r, trace);

    // Final drops release their query at once, with no part held; a
    // query settled late moves this count, a pure function of the
    // seed.
    EXPECT_EQ(r.peakHeldQueries, 165u);
}

TEST(QueryBookDriver, ElasticPeakLiveQueriesIsExactAndSmall)
{
    const QueryTrace trace = busyTrace();
    const AutoscaleResult r = runElastic(elasticSpec(retryTier()), trace);

    EXPECT_GT(r.faults.crashes, 0u);
    EXPECT_GT(r.faults.failovers, 0u);
    EXPECT_GT(r.overload.retried, 0u);
    expectConserved(r, trace);

    EXPECT_EQ(r.peakHeldQueries, 158u);
}

TEST(QueryBookDriver, WatchingARunDoesNotMoveTheQueryWindow)
{
    // A full-rate observer reads each query's stamps off the driver's
    // own record, so watching a run keeps no record held longer.
    const QueryTrace trace = busyTrace();
    ClusterConfig cfg = retryTier();
    cfg.hedge.delaySeconds = 0.01;
    {
        obs::RunObserver observer(obs::ObsConfig::full(1.0),
                                  cfg.machines.size());
        const ClusterResult r = runStatic(cfg, trace, &observer);
        EXPECT_EQ(r.peakHeldQueries, runStatic(cfg, trace).peakHeldQueries);
    }
    {
        const AutoscaleSpec spec = elasticSpec(retryTier());
        obs::RunObserver observer(obs::ObsConfig::full(1.0),
                                  spec.cluster.machines.size());
        const AutoscaleResult r = runElastic(spec, trace, &observer);
        EXPECT_EQ(r.peakHeldQueries, runElastic(spec, trace).peakHeldQueries);
    }
}

/** Queries of @p trace arriving in [from, to). */
size_t
arrivalsIn(const QueryTrace& trace, double from, double to)
{
    size_t n = 0;
    for (const Query& q : trace)
        n += q.arrivalSeconds >= from && q.arrivalSeconds < to;
    return n;
}

TEST(QueryWindow, ShedRetryPinsTheHeadUntilItSettles)
{
    // A burst at t = 0 overflows one machine's queue past the depth
    // cap, and the shed queries retry only after their client backoff
    // while a light stream keeps arriving and completing. A shed query
    // is unsettled until its retry reads it, so the book holds it
    // through the backoff; with retries off every shed is final and
    // released at once.
    ClusterConfig cfg;
    cfg.machines.push_back(bench::cpuMachine(256));
    cfg.overload.admission = AdmissionKind::QueueDepth;
    cfg.overload.maxRetries = 1;

    // Twice the router's 64-item depth cap overflows the queue, yet
    // keeps it under the retry-storm pressure (twice the cap), so
    // every shed query may retry.
    const uint64_t burst = 128;
    QueryTrace trace;
    for (uint64_t i = 0; i < burst; i++)
        trace.push_back({.id = i, .arrivalSeconds = 0.0, .size = 256});
    for (uint64_t i = burst; i < burst + 200; i++)
        trace.push_back({.id = i,
                         .arrivalSeconds =
                             0.005 * static_cast<double>(i - burst + 1),
                         .size = 16});

    // A client waits at least its jittered backoff, retryDelaySeconds
    // with no Retry-After hint: light arrivals land inside it.
    double shortest = std::numeric_limits<double>::infinity();
    for (uint64_t i = 0; i < burst; i++)
        shortest = std::min(shortest, retryDelaySeconds(0.0, i, 0));
    EXPECT_GE(arrivalsIn(trace, trace[burst].arrivalSeconds, shortest), 5u);

    ClusterConfig no_retry = cfg;
    no_retry.overload.maxRetries = 0;

    {
        const ClusterResult r =
            ClusterSimulator(cfg).run(trace, RoutingSpec{});
        const ClusterResult base =
            ClusterSimulator(no_retry).run(trace, RoutingSpec{});
        expectConserved(r, trace);
        expectConserved(base, trace);
        EXPECT_GT(r.overload.retried, 0u);
        EXPECT_LT(base.peakHeldQueries, r.peakHeldQueries);
    }
    {
        AutoscaleSpec spec;
        spec.cluster = cfg;
        spec.controlIntervalSeconds = 0.1;
        AutoscaleSpec base_spec = spec;
        base_spec.cluster = no_retry;
        const AutoscaleResult r = runElastic(spec, trace);
        const AutoscaleResult base = runElastic(base_spec, trace);
        expectConserved(r, trace);
        expectConserved(base, trace);
        EXPECT_GT(r.overload.retried, 0u);
        EXPECT_LT(base.peakHeldQueries, r.peakHeldQueries);
    }
}

TEST(QueryWindow, FailoverBackoffPinsTheLowId)
{
    // A killed query waits out its failover backoff unsettled, with
    // no live part: only its pending Retry reads it, so the book holds
    // it until then. A long backoff makes the killed queries pile up,
    // held, by about the arrivals it spans.
    const QueryTrace trace = busyTrace();
    ClusterConfig quick = busyTier();
    quick.faults.failoverDelaySeconds = 0.0;
    ClusterConfig slow = busyTier();
    slow.faults.failoverDelaySeconds = 0.5;
    const size_t spanned = arrivalsIn(trace, trace.front().arrivalSeconds,
                                      trace.front().arrivalSeconds + 0.5);
    {
        const ClusterResult q = runStatic(quick, trace);
        const ClusterResult s = runStatic(slow, trace);
        expectConserved(q, trace);
        expectConserved(s, trace);
        EXPECT_GT(s.faults.failovers, 0u);
        EXPECT_GE(s.peakHeldQueries, spanned / 2);
        EXPECT_LT(q.peakHeldQueries * 2, s.peakHeldQueries);
    }
    {
        const AutoscaleResult q = runElastic(elasticSpec(quick), trace);
        const AutoscaleResult s = runElastic(elasticSpec(slow), trace);
        expectConserved(q, trace);
        expectConserved(s, trace);
        EXPECT_GT(s.faults.failovers, 0u);
        EXPECT_GE(s.peakHeldQueries, spanned / 2);
        EXPECT_LT(q.peakHeldQueries * 2, s.peakHeldQueries);
    }
}

TEST(QueryWindow, HedgeCheckAfterCompletionPinsItsQuery)
{
    // A hedge delay far above the service time: nearly every query
    // completes before its hedge check fires, and the pending check
    // reads it, so the book holds every query arriving within one
    // delay of the first.
    ClusterConfig cfg = busyTier();
    cfg.faults = FaultPlan{};
    cfg.hedge.delaySeconds = 0.25;
    const QueryTrace trace = busyTrace();
    const ClusterResult r = runStatic(cfg, trace);
    expectConserved(r, trace);
    EXPECT_EQ(r.numCompleted, trace.size());
    EXPECT_LT(r.faults.hedged * 100, trace.size());
    EXPECT_GE(r.peakHeldQueries,
              arrivalsIn(trace, trace.front().arrivalSeconds,
                         trace.front().arrivalSeconds + 0.25));
}

TEST(QueryWindow, LostQueryOutlivedByItsParts)
{
    // Heavy crashes and no failover budget: a crash that kills one
    // part loses its query while the dispatch's other parts, and the
    // hedge twins racing them, still run. They finish as ghosts and
    // read the settled query, which must still be held.
    ClusterConfig hedged = busyTier();
    hedged.faults.crashesPerHour = 2400.0;
    hedged.faults.maxFailovers = 0;
    hedged.hedge.delaySeconds = 0.003;
    // At the busy rate and at a light one, where the last ghost soon
    // ends a lost query.
    const QueryTrace busy = busyTrace();
    const QueryTrace light = busyTrace(300.0);
    for (const QueryTrace& trace : {busy, light}) {
        const ClusterResult r = runStatic(hedged, trace);
        expectConserved(r, trace);
        EXPECT_GT(r.faults.lost, 0u);
        EXPECT_GT(r.faults.hedged, 0u);
        EXPECT_GT(r.faults.hedgeWasted + r.faults.hedgeWins, 0u);
    }
    // The elastic tier hedges too; without hedging its ghosts are the
    // parts alone.
    ClusterConfig unhedged = hedged;
    unhedged.hedge = HedgeConfig{};
    for (const auto& [cfg, trace] :
         {std::pair{hedged, busy}, std::pair{hedged, light},
          std::pair{unhedged, light}}) {
        const AutoscaleResult r = runElastic(elasticSpec(cfg), trace);
        expectConserved(r, trace);
        EXPECT_GT(r.faults.lost, 0u);
        if (cfg.hedge.enabled()) {
            EXPECT_GT(r.faults.hedged, 0u);
            EXPECT_GT(r.faults.hedgeWasted + r.faults.hedgeWins, 0u);
        } else {
            EXPECT_EQ(r.faults.hedged, 0u);
        }
    }
}

TEST(HeldRecords, GrayStragglerPinsAWideWindowButFewRecords)
{
    // One gray window and no crashes: parts queued on the gray machine
    // run FaultPlan::graySlowdownFactor times slower and hold their
    // queries while the healthy machines finish the queries arriving
    // behind them. Those are released as they finish, so a straggler
    // costs the later arrivals nothing: the book holds under an eighth
    // of the arrivals the gray window spans. A long trace at the busy
    // rate reaches the window with every machine loaded.
    ClusterConfig calm = busyTier();
    calm.faults = FaultPlan{};
    ClusterConfig gray = calm;
    gray.faults.grayPerHour = 60.0;
    gray.faults.grayDurationSeconds = 0.3;
    const QueryTrace trace = busyTrace(2500.0, 15000);

    const ClusterResult g = runStatic(gray, trace);
    expectConserved(g, trace);
    EXPECT_EQ(g.faults.grayWindows, 1u);
    size_t gray_arrivals = 0;
    for (const FaultEvent& fe : buildFaultSchedule(
             gray.faults, static_cast<uint32_t>(gray.machines.size()),
             trace.front().arrivalSeconds, trace.back().arrivalSeconds)) {
        if (fe.kind == FaultEvent::Kind::GrayStart)
            gray_arrivals = arrivalsIn(
                trace, fe.time, fe.time + gray.faults.grayDurationSeconds);
    }
    EXPECT_GT(gray_arrivals, 0u);
    EXPECT_LT(g.peakHeldQueries * 8, gray_arrivals);

    // The elastic tier has drained to fewer machines, so the gray one
    // backs real work up and holds its queries.
    const AutoscaleResult ec = runElastic(elasticSpec(calm), trace);
    const AutoscaleResult eg = runElastic(elasticSpec(gray), trace);
    expectConserved(eg, trace);
    EXPECT_EQ(eg.faults.grayWindows, 1u);
    EXPECT_GT(eg.peakHeldQueries, 5 * ec.peakHeldQueries);

    // With crashes as well, killed dispatches, stale arrivals and lost
    // parts each end their parts while the straggler runs: a late
    // release point holds a query longer and moves these exact
    // counts.
    ClusterConfig chaos = busyTier();
    chaos.faults.grayDurationSeconds = 0.3;
    chaos.hedge.delaySeconds = 0.01;
    const ClusterResult x = runStatic(chaos, trace);
    const AutoscaleResult ex = runElastic(elasticSpec(chaos), trace);
    expectConserved(x, trace);
    expectConserved(ex, trace);
    EXPECT_GT(x.faults.crashes, 0u);
    EXPECT_GT(x.faults.hedged, 0u);
    EXPECT_EQ(x.peakHeldQueries, 252u);
    EXPECT_EQ(ex.peakHeldQueries, 57u);
}

TEST(QueryWindow, UnroutableQueryWithNoPartsSettles)
{
    // Single-copy tables and no failover budget: a presentation whose
    // tables are all down is lost at once with no part ever created,
    // and its query is released straight away.
    ClusterConfig cfg = busyTier();
    PlacementSpec placement;
    placement.strategy = PlacementStrategy::GreedyBySize;
    placement.minReplicas = 1;
    cfg.sharding = colocatedSharding(
        cfg.modelMix, machineMemoryBudgets(cfg.machines), placement, 6);
    cfg.faults.faultTolerance = 0;
    cfg.faults.maxFailovers = 0;
    const QueryTrace trace = busyTrace();
    {
        const ClusterResult r = runStatic(cfg, trace);
        expectConserved(r, trace);
        EXPECT_GT(r.faults.unroutable, 0u);
    }
    {
        const AutoscaleResult r = runElastic(elasticSpec(cfg), trace);
        expectConserved(r, trace);
        EXPECT_GT(r.faults.unroutable, 0u);
    }
}

// ------------------------------------ the flat part-machine book

/** The hedge instants of a full-rate trace: (query, from, to). */
std::vector<std::array<uint64_t, 3>>
hedgesOf(const obs::RunObserver& observer)
{
    std::ostringstream trace;
    observer.writeTrace(trace);
    const std::string text = trace.str();
    std::vector<std::array<uint64_t, 3>> hedges;
    for (size_t at = text.find("\"query\": "); at != std::string::npos;
         at = text.find("\"query\": ", at + 1)) {
        std::array<uint64_t, 3> h;
        if (std::sscanf(text.c_str() + at,
                        "\"query\": %" SCNu64 ", \"from\": %" SCNu64
                        ", \"to\": %" SCNu64,
                        &h[0], &h[1], &h[2]) == 3)
            hedges.push_back(h);
    }
    return hedges;
}

/** Rows tile the parts, and row(i) is the by-value row i. */
void
expectRowsTileParts(const ClusterResult& r, const QueryTrace& trace)
{
    const FlatBook<uint16_t, uint32_t>& book = r.partMachinesOfQuery;
    ASSERT_EQ(book.size(), trace.size());
    uint64_t sum = 0;
    size_t i = 0;
    for (const std::vector<uint32_t>& by_value : book) {
        const std::span<const uint16_t> row = book.row(i);
        sum += row.size();
        ASSERT_TRUE(std::ranges::equal(row, by_value)) << "row " << i;
        ASSERT_EQ(book[i], by_value) << "row " << i;
        i++;
    }
    EXPECT_EQ(i, trace.size());
    EXPECT_EQ(sum, r.numParts);
}

TEST(PartMachineBook, HedgedChaoticRetryTierRowsHoldEveryPart)
{
    ClusterConfig cfg = retryTier();
    cfg.hedge.delaySeconds = 0.01;
    const QueryTrace trace = busyTrace();
    obs::RunObserver observer(obs::ObsConfig::full(1.0),
                              cfg.machines.size());
    const ClusterResult r = runStatic(cfg, trace, &observer);
    EXPECT_GT(r.faults.failovers, 0u);
    EXPECT_GT(r.overload.retried, 0u);
    EXPECT_GT(r.overload.droppedFinal, 0u);
    expectRowsTileParts(r, trace);

    // A hedged part's row holds both the original and its twin.
    const auto hedges = hedgesOf(observer);
    ASSERT_GT(r.faults.hedged, 0u);
    EXPECT_EQ(hedges.size(), r.faults.hedged);
    for (const auto& [query, from, to] : hedges) {
        const std::span<const uint16_t> row =
            r.partMachinesOfQuery.row(query);
        EXPECT_NE(std::ranges::find(row, from), row.end()) << query;
        EXPECT_NE(std::ranges::find(row, to), row.end()) << query;
    }
    // Every completed query was dispatched at least once.
    for (size_t i = 0; i < trace.size(); i++) {
        if (r.machineOfQuery[i] < cfg.machines.size()) {
            EXPECT_FALSE(r.partMachinesOfQuery.row(i).empty()) << i;
        }
    }
}

TEST(PartMachineBook, NeverDispatchedQueriesHaveEmptyRows)
{
    // Client retries, hedging and single-copy tables with no failover
    // budget: a query is either dispatched (and its row holds its
    // parts), finally shed at the router, or unroutable and lost on
    // the spot. Only the last two have empty rows.
    ClusterConfig cfg = retryTier();
    cfg.hedge.delaySeconds = 0.01;
    PlacementSpec placement;
    placement.strategy = PlacementStrategy::GreedyBySize;
    placement.minReplicas = 1;
    cfg.sharding = colocatedSharding(
        cfg.modelMix, machineMemoryBudgets(cfg.machines), placement, 6);
    cfg.faults.faultTolerance = 0;
    cfg.faults.maxFailovers = 0;
    const QueryTrace trace = busyTrace();
    const ClusterResult r = runStatic(cfg, trace);
    EXPECT_GT(r.overload.droppedFinal, 0u);
    EXPECT_GT(r.faults.unroutable, 0u);
    expectRowsTileParts(r, trace);

    for (uint64_t q : r.overload.droppedQueries)
        EXPECT_TRUE(r.partMachinesOfQuery.row(q).empty()) << q;
    uint64_t empty = 0;
    for (size_t i = 0; i < trace.size(); i++)
        empty += r.partMachinesOfQuery.row(i).empty();
    EXPECT_EQ(empty, r.overload.droppedFinal + r.faults.unroutable);
}

} // namespace
} // namespace deeprecsys
