/**
 * @file
 * Tests for the cluster drivers' part and query books
 * (cluster/part_book.hh, cluster/query_book.hh; the storage itself is
 * tested in test_window_book.cc): the part retire rule (terminal head,
 * terminal twin, dispatch over) and how one pinned part holds the
 * window open, the retired-id panic, the drivers' exact peak-live and
 * peak-held work counters for parts and queries on a sharded, hedged,
 * chaotic, colocated tier, and the query-window edge cases: a shed
 * query awaiting its retry, a failover backoff, a hedge check that
 * fires after its query completed, a lost query outlived by a hedge
 * twin (both tiers), and an unroutable query with no parts. A gray
 * straggler widens both windows while few records stay held. Last,
 * the flat book of per-query part machines the static driver fills as
 * queries retire.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "cluster/part_book.hh"
#include "tests/busy_tier.hh"

namespace deeprecsys {
namespace {

PartRec
recFor(uint64_t query, uint32_t machine = 0)
{
    PartRec rec;
    rec.queryIdx = query;
    rec.machine = machine;
    return rec;
}

/** A dispatch predicate that never pins. */
bool
anyDispatch(const PartRec&)
{
    return true;
}

// ------------------------------------------------------------ the book

TEST(PartBook, RetireStopsAtTheFirstNonTerminalHead)
{
    PartBook book;
    for (uint64_t i = 0; i < 10; i++)
        book.push(recFor(i));
    for (uint64_t i = 0; i < 10; i++)
        book[i].done = i != 3;
    book.retire(anyDispatch);
    EXPECT_EQ(book.lowId(), 3u);
    EXPECT_EQ(book.live(), 7u);

    // Cancelled is terminal too; the window then drains completely.
    book[3].cancelled = true;
    book.retire(anyDispatch);
    EXPECT_EQ(book.lowId(), 10u);
    EXPECT_EQ(book.live(), 0u);
}

TEST(PartBook, PinnedOldPartKeepsEverythingAfterItReadable)
{
    PartBook book;
    book.push(recFor(0));    // never finishes until the end
    const uint64_t n = 5 * PartBook::kChunkSize;
    for (uint64_t i = 1; i <= n; i++) {
        book.push(recFor(i));
        book[i].done = true;
        book.retire(anyDispatch);
    }
    EXPECT_EQ(book.lowId(), 0u);
    EXPECT_EQ(book.peakLive(), n + 1);
    for (uint64_t i = 0; i <= n; i++)
        EXPECT_EQ(book[i].queryIdx, i);

    book[0].done = true;
    book.retire(anyDispatch);
    EXPECT_EQ(book.lowId(), n + 1);
}

TEST(PartBook, UnfinishedTwinAndLiveDispatchPinTheHead)
{
    PartBook book;
    PartRec original = recFor(1);
    original.partner = 1;
    PartRec dup = recFor(1);
    dup.partner = 0;
    dup.hedged = true;
    book.push(original);
    book.push(dup);

    // The original finished, but its hedge twin still runs and will
    // read it when it finishes: both stay.
    book[0].done = true;
    book.retire(anyDispatch);
    EXPECT_EQ(book.lowId(), 0u);
    book[1].done = true;
    book.retire(anyDispatch);
    EXPECT_EQ(book.lowId(), 2u);

    // A terminal part of a dispatch that is still live stays readable
    // (its hedge check walks every part of the dispatch).
    book.push(recFor(7));
    book[2].done = true;
    book.retire([](const PartRec& p) { return p.queryIdx != 7; });
    EXPECT_EQ(book.lowId(), 2u);
    book.retire(anyDispatch);
    EXPECT_EQ(book.lowId(), 3u);
}

TEST(PartBookDeath, ReadingARetiredIdPanics)
{
    PartBook book;
    for (uint64_t i = 0; i < 3; i++)
        book.push(recFor(i));
    book[0].done = true;
    book.retire(anyDispatch);
    ASSERT_EQ(book.lowId(), 1u);
    EXPECT_DEATH((void)book[0], "outside the live window");
    EXPECT_DEATH((void)book[3], "outside the live window");
}

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

    // A part that never reaches a terminal state pins the window and
    // moves this count; it is a pure function of the seed.
    EXPECT_EQ(r.peakLiveParts, 1192u);
    EXPECT_LT(r.peakLiveParts * 8, r.numParts);
    // Chunks are allocated only for the span of the live window; a
    // book that fails to recycle a spare moves these.
    EXPECT_EQ(r.peakPartChunks, 2u);
    EXPECT_EQ(r.peakQueryChunks, 2u);
    // Records are released out of order as soon as no reader can
    // reach them: a missed release point moves these, and only a few
    // of the ids in each window still hold a record.
    EXPECT_EQ(r.peakHeldParts, 181u);
    EXPECT_EQ(r.peakHeldQueries, 49u);
    EXPECT_LT(r.peakHeldParts * 4, r.peakLiveParts);
    EXPECT_LT(r.peakHeldQueries * 4, r.peakLiveQueries);
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

    EXPECT_EQ(r.peakLiveParts, 1203u);
    EXPECT_LT(r.peakLiveParts * 8, r.numParts);
    EXPECT_EQ(r.peakPartChunks, 2u);
    EXPECT_EQ(r.peakQueryChunks, 2u);
    EXPECT_EQ(r.peakHeldParts, 187u);
    EXPECT_EQ(r.peakHeldQueries, 45u);
    EXPECT_LT(r.peakHeldParts * 4, r.peakLiveParts);
    EXPECT_LT(r.peakHeldQueries * 4, r.peakLiveQueries);
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

    // A query never marked settled pins the window and moves this
    // count; it is a pure function of the seed.
    EXPECT_EQ(r.peakLiveQueries, 252u);
    EXPECT_LT(r.peakLiveQueries * 8, trace.size());
    // Final drops release their query at once, with no part held.
    EXPECT_EQ(r.peakHeldQueries, 96u);
}

TEST(QueryBookDriver, ElasticPeakLiveQueriesIsExactAndSmall)
{
    const QueryTrace trace = busyTrace();
    const AutoscaleResult r = runElastic(elasticSpec(retryTier()), trace);

    EXPECT_GT(r.faults.crashes, 0u);
    EXPECT_GT(r.faults.failovers, 0u);
    EXPECT_GT(r.overload.retried, 0u);
    expectConserved(r, trace);

    EXPECT_EQ(r.peakLiveQueries, 252u);
    EXPECT_LT(r.peakLiveQueries * 8, trace.size());
    EXPECT_EQ(r.peakHeldQueries, 85u);
}

TEST(QueryBookDriver, WatchingARunDoesNotMoveTheQueryWindow)
{
    // A full-rate observer reads each query's stamps off the driver's
    // own record, so watching a run keeps no record alive longer.
    const QueryTrace trace = busyTrace();
    ClusterConfig cfg = retryTier();
    cfg.hedge.delaySeconds = 0.01;
    {
        obs::RunObserver observer(obs::ObsConfig::full(1.0),
                                  cfg.machines.size());
        const ClusterResult r = runStatic(cfg, trace, &observer);
        EXPECT_EQ(r.peakLiveQueries, runStatic(cfg, trace).peakLiveQueries);
    }
    {
        const AutoscaleSpec spec = elasticSpec(retryTier());
        obs::RunObserver observer(obs::ObsConfig::full(1.0),
                                  spec.cluster.machines.size());
        const AutoscaleResult r = runElastic(spec, trace, &observer);
        EXPECT_EQ(r.peakLiveQueries, runElastic(spec, trace).peakLiveQueries);
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
    // A burst at t = 0 overflows one machine's queue, and the shed
    // queries retry only after a long backoff while a light stream
    // keeps arriving and completing. The first shed query is
    // unsettled until its retry, so it holds every later arrival in
    // the window; with retries off every shed is final and the window
    // stays near the burst size.
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc1);
    ClusterConfig cfg;
    SchedulerPolicy sched;
    sched.perRequestBatch = 256;
    cfg.machines.push_back(SimConfig{
        CpuCostModel(profile, CpuPlatform::skylake()), std::nullopt, sched});
    cfg.overload.admission = AdmissionKind::QueueDepth;
    cfg.overload.queueDepthCap = 2;
    cfg.overload.maxRetries = 1;
    cfg.overload.retryBackoffSeconds = 0.3;
    cfg.overload.retryJitterFraction = 0.0;
    cfg.overload.retryStormPressure = 1e9;

    QueryTrace trace;
    for (uint64_t i = 0; i < 64; i++)
        trace.push_back({.id = i, .arrivalSeconds = 0.0, .size = 256});
    for (uint64_t i = 64; i < 264; i++)
        trace.push_back({.id = i,
                         .arrivalSeconds = 0.005 * static_cast<double>(i - 63),
                         .size = 16});
    ClusterConfig no_retry = cfg;
    no_retry.overload.maxRetries = 0;

    const size_t pinned = arrivalsIn(trace, 0.0, 0.3) - 64;
    {
        const ClusterResult r =
            ClusterSimulator(cfg).run(trace, RoutingSpec{});
        const ClusterResult base =
            ClusterSimulator(no_retry).run(trace, RoutingSpec{});
        expectConserved(r, trace);
        expectConserved(base, trace);
        EXPECT_GT(r.overload.retried, 0u);
        EXPECT_GE(r.peakLiveQueries, pinned);
        EXPECT_LT(base.peakLiveQueries, r.peakLiveQueries);
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
        EXPECT_GE(r.peakLiveQueries, pinned);
        EXPECT_LT(base.peakLiveQueries, r.peakLiveQueries);
    }
}

TEST(QueryWindow, FailoverBackoffPinsTheLowId)
{
    // A killed query waits out its failover backoff unsettled, with
    // no part in the book: only the query window holds it. A long
    // backoff must widen the window by about the arrivals it spans.
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
        EXPECT_GE(s.peakLiveQueries, spanned / 2);
        EXPECT_LT(q.peakLiveQueries * 2, s.peakLiveQueries);
    }
    {
        const AutoscaleResult q = runElastic(elasticSpec(quick), trace);
        const AutoscaleResult s = runElastic(elasticSpec(slow), trace);
        expectConserved(q, trace);
        expectConserved(s, trace);
        EXPECT_GT(s.faults.failovers, 0u);
        EXPECT_GE(s.peakLiveQueries, spanned / 2);
        EXPECT_LT(q.peakLiveQueries * 2, s.peakLiveQueries);
    }
}

TEST(QueryWindow, HedgeCheckAfterCompletionPinsItsQuery)
{
    // A hedge delay far above the service time: nearly every query
    // completes before its hedge check fires, and the pending check
    // keeps it (and every later arrival) in the window until then.
    ClusterConfig cfg = busyTier();
    cfg.faults = FaultPlan{};
    cfg.hedge.delaySeconds = 0.25;
    const QueryTrace trace = busyTrace();
    const ClusterResult r = runStatic(cfg, trace);
    expectConserved(r, trace);
    EXPECT_EQ(r.numCompleted, trace.size());
    EXPECT_LT(r.faults.hedged * 100, trace.size());
    EXPECT_GE(r.peakLiveQueries,
              arrivalsIn(trace, trace.front().arrivalSeconds,
                         trace.front().arrivalSeconds + 0.25));
}

TEST(QueryWindow, LostQueryOutlivedByItsParts)
{
    // Heavy crashes and no failover budget: a crash that kills one
    // part loses its query while the dispatch's other parts, and the
    // hedge twins racing them, still run. They finish as ghosts and
    // read the settled query, which must still be in the window.
    ClusterConfig hedged = busyTier();
    hedged.faults.crashesPerHour = 2400.0;
    hedged.faults.maxFailovers = 0;
    hedged.hedge.delaySeconds = 0.003;
    // A light optimistic-join tier: no dense phase extends the
    // query's parts, and a lost query soon reaches the window head.
    ClusterConfig light = hedged;
    light.join = JoinModel::Optimistic;
    for (const auto& [cfg, trace] :
         {std::pair{hedged, busyTrace()}, std::pair{light, busyTrace(300.0)}}) {
        const ClusterResult r = runStatic(cfg, trace);
        expectConserved(r, trace);
        EXPECT_GT(r.faults.lost, 0u);
        EXPECT_GT(r.faults.hedged, 0u);
        EXPECT_GT(r.faults.hedgeWasted + r.faults.hedgeWins, 0u);
        EXPECT_LT(r.peakLiveQueries * 8, trace.size());
    }
    // The elastic tier hedges too, on both joins; without hedging its
    // ghosts are the parts alone.
    ClusterConfig unhedged = light;
    unhedged.hedge = HedgeConfig{};
    for (const auto& [cfg, trace] :
         {std::pair{hedged, busyTrace()}, std::pair{light, busyTrace(300.0)},
          std::pair{unhedged, busyTrace(300.0)}}) {
        const AutoscaleResult r = runElastic(elasticSpec(cfg), trace);
        expectConserved(r, trace);
        EXPECT_GT(r.faults.lost, 0u);
        if (cfg.hedge.enabled()) {
            EXPECT_GT(r.faults.hedged, 0u);
            EXPECT_GT(r.faults.hedgeWasted + r.faults.hedgeWins, 0u);
        } else {
            EXPECT_EQ(r.faults.hedged, 0u);
        }
        EXPECT_LT(r.peakLiveQueries * 8, trace.size());
    }
}

TEST(HeldRecords, GrayStragglerPinsAWideWindowButFewRecords)
{
    // One deep gray window and no crashes: parts queued on the gray
    // machine run 40x slower and pin the head of the part window
    // while the healthy machines finish thousands of parts behind
    // them. Those are released as they finish, so the windows widen
    // far past the calm tier's while few records stay held.
    ClusterConfig calm = busyTier();
    calm.faults = FaultPlan{};
    ClusterConfig gray = calm;
    gray.faults.grayPerHour = 60.0;
    gray.faults.graySlowdownFactor = 40.0;
    gray.faults.grayDurationSeconds = 0.3;
    const QueryTrace trace = busyTrace(1000.0);

    const ClusterResult c = runStatic(calm, trace);
    const ClusterResult g = runStatic(gray, trace);
    expectConserved(g, trace);
    EXPECT_EQ(g.faults.grayWindows, 1u);
    EXPECT_GT(g.peakLiveParts, 5 * c.peakLiveParts);
    EXPECT_GT(g.peakLiveQueries, 5 * c.peakLiveQueries);
    // The static tier keeps its spare capacity: the straggler's parts
    // are all it adds to the held records.
    EXPECT_LE(g.peakHeldParts, c.peakHeldParts + c.peakHeldParts / 4);
    EXPECT_LT(g.peakHeldParts * 8, g.peakLiveParts);
    EXPECT_LT(g.peakHeldQueries * 8, g.peakLiveQueries);

    // The elastic tier has drained to fewer machines, so the gray one
    // backs real work up; still most of its windows are released ids.
    const AutoscaleResult ec = runElastic(elasticSpec(calm), trace);
    const AutoscaleResult eg = runElastic(elasticSpec(gray), trace);
    expectConserved(eg, trace);
    EXPECT_EQ(eg.faults.grayWindows, 1u);
    EXPECT_GT(eg.peakLiveParts, 5 * ec.peakLiveParts);
    EXPECT_GT(eg.peakLiveQueries, 5 * ec.peakLiveQueries);
    EXPECT_LT(eg.peakHeldParts * 4, eg.peakLiveParts);
    EXPECT_LT(eg.peakHeldQueries * 4, eg.peakLiveQueries);

    // With crashes as well, killed dispatches, stale arrivals and lost
    // parts each release their records while the straggler pins the
    // windows: a missed release point holds them until the window
    // passes, and moves these exact counts.
    ClusterConfig chaos = busyTier();
    chaos.faults.graySlowdownFactor = 40.0;
    chaos.faults.grayDurationSeconds = 0.3;
    chaos.hedge.delaySeconds = 0.01;
    const ClusterResult x = runStatic(chaos, trace);
    const AutoscaleResult ex = runElastic(elasticSpec(chaos), trace);
    expectConserved(x, trace);
    expectConserved(ex, trace);
    EXPECT_GT(x.faults.crashes, 0u);
    EXPECT_GT(x.faults.hedged, 0u);
    EXPECT_EQ(x.peakLiveParts, 7535u);
    EXPECT_EQ(x.peakHeldParts, 752u);
    EXPECT_EQ(x.peakLiveQueries, 1537u);
    EXPECT_EQ(x.peakHeldQueries, 196u);
    EXPECT_EQ(ex.peakLiveParts, 2565u);
    EXPECT_EQ(ex.peakHeldParts, 92u);
    EXPECT_EQ(ex.peakLiveQueries, 636u);
    EXPECT_EQ(ex.peakHeldQueries, 26u);
}

TEST(QueryWindow, UnroutableQueryWithNoPartsSettles)
{
    // Single-copy tables and no failover budget: a presentation whose
    // tables are all down is lost at once with no part ever created,
    // and leaves the window straight away.
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
        EXPECT_LT(r.peakLiveQueries * 8, trace.size());
    }
    {
        const AutoscaleResult r = runElastic(elasticSpec(cfg), trace);
        expectConserved(r, trace);
        EXPECT_GT(r.faults.unroutable, 0u);
        EXPECT_LT(r.peakLiveQueries * 8, trace.size());
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
