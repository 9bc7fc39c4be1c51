/**
 * @file
 * Tests for the cluster drivers' part book (cluster/part_book.hh):
 * monotonic ids that equal the indices of an ever-growing vector
 * across chunk boundaries, the retire rule (terminal head, terminal
 * twin, dispatch over) and how one pinned part holds the window open,
 * chunk reuse at a bounded live count, reference stability across
 * push, the retired-id panic, and the drivers' exact peak-live-parts
 * work counter on a sharded, hedged, chaotic, colocated tier.
 */

#include <gtest/gtest.h>

#include <deque>

#include "cluster/autoscaler.hh"
#include "cluster/cluster_sim.hh"
#include "cluster/model_mix.hh"
#include "cluster/part_book.hh"
#include "loadgen/query_stream.hh"

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

TEST(PartBook, IdsEqualVectorIndicesAcrossChunkBoundaries)
{
    PartBook book;
    std::vector<PartRec> reference;
    const uint64_t n = 3 * PartBook::kChunkParts + 17;
    for (uint64_t i = 0; i < n; i++) {
        PartRec rec = recFor(i * 7 + 3, static_cast<uint32_t>(i % 13));
        rec.embFraction = 1.0 / static_cast<double>(i + 1);
        reference.push_back(rec);
        EXPECT_EQ(book.push(rec), i);
    }
    EXPECT_EQ(book.nextId(), n);
    EXPECT_EQ(book.live(), n);
    for (uint64_t i = 0; i < n; i++) {
        EXPECT_EQ(book[i].queryIdx, reference[i].queryIdx);
        EXPECT_EQ(book[i].machine, reference[i].machine);
        EXPECT_EQ(book[i].embFraction, reference[i].embFraction);
    }

    // Retire across two chunk boundaries; later ids keep reading
    // their own records and new ids continue the sequence.
    const uint64_t cut = 2 * PartBook::kChunkParts + 5;
    for (uint64_t i = 0; i < cut; i++)
        book[i].done = true;
    book.retire(anyDispatch);
    EXPECT_EQ(book.lowId(), cut);
    for (uint64_t i = cut; i < n; i++)
        EXPECT_EQ(book[i].queryIdx, reference[i].queryIdx);
    EXPECT_EQ(book.push(recFor(99)), n);
    EXPECT_EQ(book[n].queryIdx, 99u);
}

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
    const uint64_t n = 5 * PartBook::kChunkParts;
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

TEST(PartBook, ChunksRecycleAtABoundedLiveCount)
{
    // A million push/retire cycles at 3000 live parts: the chunk ring
    // reaches its size early and never grows again.
    constexpr size_t kLive = 3000;
    PartBook book;
    std::deque<uint64_t> window;
    size_t slots_after_warmup = 0;
    for (uint64_t i = 0; i < 1'000'000; i++) {
        window.push_back(book.push(recFor(i)));
        if (window.size() > kLive) {
            book[window.front()].done = true;
            window.pop_front();
            book.retire(anyDispatch);
        }
        if (i == 10 * kLive)
            slots_after_warmup = book.chunkSlots();
    }
    EXPECT_EQ(book.nextId(), 1'000'000u);
    EXPECT_EQ(book.live(), kLive);
    EXPECT_EQ(book.peakLive(), kLive + 1);
    EXPECT_EQ(book.chunkSlots(), slots_after_warmup);
    // Storage covers the live window rounded up to whole chunks and a
    // power-of-two ring: at most twice the chunks the window spans.
    const size_t spanned = (kLive + 1) / PartBook::kChunkParts + 2;
    EXPECT_LE(book.chunkSlots(), 2 * spanned);
}

TEST(PartBook, ReferencesStayValidAcrossPush)
{
    PartBook book;
    PartRec& first = book[book.push(recFor(42))];
    first.tables = {1, 2, 3};
    // Enough pushes to grow the chunk ring several times over.
    for (uint64_t i = 1; i < 9 * PartBook::kChunkParts; i++)
        book.push(recFor(i));
    EXPECT_EQ(&book[0], &first);
    EXPECT_EQ(first.queryIdx, 42u);
    EXPECT_EQ(first.tables, (std::vector<uint32_t>{1, 2, 3}));
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

/** RMC2/WnD/NCF colocated on every machine (per-request batch 256). */
std::vector<ModelMixEntry>
tierMix()
{
    std::vector<ModelMixEntry> mix;
    for (auto [id, share] : {std::pair{ModelId::DlrmRmc2, 0.4},
                             std::pair{ModelId::WideAndDeep, 0.4},
                             std::pair{ModelId::Ncf, 0.2}}) {
        ModelMixEntry entry;
        entry.id = id;
        entry.trafficFraction = share;
        entry.policy.perRequestBatch = 256;
        mix.push_back(entry);
    }
    return mix;
}

/** 8 colocated machines, 2 replicas per table, TwoStage joins, a hot
 *  crash + gray plan with failover: every part death path is live. */
ClusterConfig
busyTier()
{
    const std::vector<ModelMixEntry> mix = tierMix();
    ClusterConfig cluster;
    for (size_t m = 0; m < 8; m++)
        cluster.machines.push_back(colocatedMachine(
            mix, CpuPlatform::skylake(), 3'000'000'000ULL));
    PlacementSpec placement;
    placement.strategy = PlacementStrategy::GreedyBySize;
    placement.minReplicas = 2;
    cluster.sharding = colocatedSharding(
        mix, machineMemoryBudgets(cluster.machines), placement, 6);
    cluster.modelMix = mix;
    cluster.network.hopSeconds = 150e-6;
    cluster.network.gigabytesPerSecond = 12.5;
    cluster.join = JoinModel::TwoStage;
    cluster.faults.crashesPerHour = 900.0;
    cluster.faults.grayPerHour = 240.0;
    cluster.faults.repairSeconds = 0.5;
    cluster.faults.faultTolerance = 2;
    cluster.faults.maxFailovers = 2;
    return cluster;
}

QueryTrace
busyTrace()
{
    LoadSpec load;
    load.arrivalSeed = 0xb00c;
    load.sizeSeed = 0xb00d;
    MixedTraceTemplate mixed(load, mixFractions(tierMix()));
    mixed.ensure(6000);
    return mixed.materialize(2500.0, 6000);
}

TEST(PartBookDriver, StaticPeakLivePartsIsExactAndSmall)
{
    ClusterConfig cfg = busyTier();
    cfg.hedge.delaySeconds = 0.01;
    const QueryTrace trace = busyTrace();
    const ClusterResult r = ClusterSimulator(cfg).run(
        trace, RoutingSpec{RoutingKind::ShardAware});

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
}

TEST(PartBookDriver, ElasticPeakLivePartsIsExactAndSmall)
{
    AutoscaleSpec spec;
    spec.cluster = busyTier();
    spec.routing.kind = RoutingKind::ShardAware;
    spec.slaMs = 100.0;
    spec.controlIntervalSeconds = 0.4;
    spec.warmupDelaySeconds = 0.2;
    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Reactive;
    policy.minMachines = 4;
    const QueryTrace trace = busyTrace();
    const AutoscaleResult r = Autoscaler(spec).run(trace, policy);

    EXPECT_GT(r.faults.crashes, 0u);
    EXPECT_GT(r.faults.failovers, 0u);
    EXPECT_EQ(trace.size(),
              r.numCompleted + r.overload.droppedFinal + r.faults.lost);

    EXPECT_EQ(r.peakLiveParts, 1203u);
    EXPECT_LT(r.peakLiveParts * 8, r.numParts);
}

} // namespace
} // namespace deeprecsys
