/**
 * @file
 * Property suite of the multi-model colocation layer.
 *
 * A colocated tier serves several Table-1 models from one machine
 * pool; these tests pin the structural invariants that make that
 * sound rather than any particular latency number:
 *
 *  - the mixed trace generator degenerates bitwise to the
 *    single-model stream at one model, stays prefix-stable under
 *    growth, and splits counts by largest remainder;
 *  - every binding of a colocated machine prices its own model, and
 *    an empty mix is a fatal config error;
 *  - a batch is model-homogeneous by construction — each part
 *    batch-splits under its own model's policy;
 *  - a committed join phase's price is, bit for bit, the backlog its
 *    dense-only part adds when admitted, under each binding;
 *  - per-model conservation holds under overload (offered ==
 *    completed + droppedFinal + lost per ModelId) and the per-model
 *    books sum exactly to the fleet totals;
 *  - a model's tail latency is monotone in its own offered fraction
 *    when it is the heavier co-tenant;
 *  - JSQ and power-of-two routing decisions over a mix are bitwise
 *    identical at 1 and many threads (ColocationParallelDiff — run
 *    under TSan in CI);
 *  - on a tier with every feature on, each per-machine and per-model
 *    latency book is the fleet book filtered in completion order, at
 *    capacity == size, under both cluster drivers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "base/thread_pool.hh"
#include "cluster/autoscaler.hh"
#include "cluster/cluster_qps_search.hh"
#include "cluster/cluster_sim.hh"
#include "cluster/model_mix.hh"
#include "loadgen/query_stream.hh"

namespace deeprecsys {
namespace {

LoadSpec
mixLoad(double qps = 1000.0, uint64_t seed = 0x101)
{
    LoadSpec load;
    load.qps = qps;
    load.arrivalSeed = seed;
    load.sizeSeed = seed + 1;
    return load;
}

/** Mix entry with an explicit per-request batch (no SLA target). */
ModelMixEntry
mixEntry(ModelId id, double fraction, size_t batch)
{
    ModelMixEntry entry;
    entry.id = id;
    entry.trafficFraction = fraction;
    entry.policy.perRequestBatch = batch;
    return entry;
}

// ------------------------------------------------- mixed trace stream

TEST(Colocation, MixedTemplateDegeneratesToSingleModel)
{
    // A 1.0-fraction mix must reproduce the historical single-model
    // stream bit for bit: same ids, arrivals, and sizes, every query
    // tagged model 0.
    const LoadSpec load = mixLoad(1400.0);
    const size_t count = 900;

    TraceTemplate plain(load);
    plain.ensure(count);
    const QueryTrace a = plain.materialize(load.qps, count);

    MixedTraceTemplate mixed(load, {1.0});
    mixed.ensure(count);
    const QueryTrace b = mixed.materialize(load.qps, count);

    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].arrivalSeconds, b[i].arrivalSeconds);
        EXPECT_EQ(a[i].size, b[i].size);
        EXPECT_EQ(b[i].model, 0u);
    }
}

TEST(Colocation, MixedTemplatePrefixStableUnderGrowth)
{
    // Growing the drawn population must never redraw or re-merge the
    // queries an earlier, shorter materialization produced.
    const LoadSpec load = mixLoad(2000.0, 0x202);
    const std::vector<double> fractions = {0.5, 0.3, 0.2};

    MixedTraceTemplate small(load, fractions);
    small.ensure(1000);
    const QueryTrace a = small.materialize(load.qps, 1000);

    MixedTraceTemplate grown(load, fractions);
    grown.ensure(4000);
    const QueryTrace b = grown.materialize(load.qps, 1000);

    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].arrivalSeconds, b[i].arrivalSeconds);
        EXPECT_EQ(a[i].size, b[i].size);
        EXPECT_EQ(a[i].model, b[i].model);
    }
}

TEST(Colocation, MixedTraceSortedTaggedAndSplitByLargestRemainder)
{
    const LoadSpec load = mixLoad(3000.0, 0x303);
    const std::vector<double> fractions = {0.45, 0.35, 0.2};
    MixedTraceTemplate mixed(load, fractions);

    for (size_t total : {7u, 100u, 999u, 2048u}) {
        SCOPED_TRACE(total);
        mixed.ensure(total);
        const QueryTrace trace = mixed.materialize(load.qps, total);
        ASSERT_EQ(trace.size(), total);

        std::vector<size_t> seen(fractions.size(), 0);
        size_t expected_total = 0;
        for (uint32_t k = 0; k < fractions.size(); k++)
            expected_total += mixed.countOfModel(k, total);
        EXPECT_EQ(expected_total, total)
            << "largest-remainder split must partition the trace";

        for (size_t i = 0; i < trace.size(); i++) {
            const Query& q = trace[i];
            ASSERT_LT(q.model, fractions.size());
            seen[q.model]++;
            // Ids are strided per model so two models' queries can
            // never collide in any id-keyed book.
            EXPECT_EQ(q.id / kMixedQueryIdStride, q.model);
            if (i > 0) {
                EXPECT_GE(q.arrivalSeconds, trace[i - 1].arrivalSeconds)
                    << "merged trace must be sorted by arrival";
            }
        }
        for (uint32_t k = 0; k < fractions.size(); k++)
            EXPECT_EQ(seen[k], mixed.countOfModel(k, total));
    }
}

// ---------------------------------------------------- machine builder

TEST(Colocation, MachineBindsEachEntryToItsOwnProfile)
{
    // Each binding prices its own model, on the CPU and, only where
    // its policy enables offload, on the accelerator.
    std::vector<ModelMixEntry> mix = {
        mixEntry(ModelId::DlrmRmc2, 0.4, 256),
        mixEntry(ModelId::WideAndDeep, 0.4, 256),
        mixEntry(ModelId::Ncf, 0.2, 256),
    };
    mix[0].policy.gpuEnabled = true;
    mix[2].policy.gpuEnabled = true;
    const SimConfig machine =
        colocatedMachine(mix, CpuPlatform::skylake(), 1'000'000'000ULL);
    ASSERT_EQ(machine.numModels(), 3u);
    EXPECT_EQ(machine.memoryBytes, 1'000'000'000ULL);

    EXPECT_EQ(machine.cpu.profile().id, ModelId::DlrmRmc2);
    ASSERT_TRUE(machine.gpu.has_value());
    EXPECT_EQ(machine.gpu->profile().id, ModelId::DlrmRmc2);
    EXPECT_EQ(machine.coModels[0].cpu.profile().id, ModelId::WideAndDeep);
    EXPECT_FALSE(machine.coModels[0].gpu.has_value());
    EXPECT_EQ(machine.coModels[1].cpu.profile().id, ModelId::Ncf);
    ASSERT_TRUE(machine.coModels[1].gpu.has_value());
    EXPECT_EQ(machine.coModels[1].gpu->profile().id, ModelId::Ncf);
}

TEST(ColocationDeath, EmptyMixMachineIsAConfigError)
{
    EXPECT_EXIT(colocatedMachine({}, CpuPlatform::skylake()),
                ::testing::ExitedWithCode(1), "non-empty model mix");
}

TEST(ColocationDeath, EmptyMixTableSpaceIsAConfigError)
{
    EXPECT_EXIT(colocatedSharding({}, {1'000'000'000ULL}, PlacementSpec{},
                                  /*tables_per_query=*/8),
                ::testing::ExitedWithCode(1), "non-empty model mix");
}

TEST(ColocationDeath, MixBeyondSixteenBitModelIdsIsAConfigError)
{
    const std::vector<double> fractions(
        kMaxMixModels + 1, 1.0 / static_cast<double>(kMaxMixModels + 1));
    EXPECT_EXIT(MixedTraceTemplate(mixLoad(), fractions),
                ::testing::ExitedWithCode(1),
                "a mix of 65537 models exceeds the 65536");
    EXPECT_EXIT(
        {
            ClusterConfig cfg;
            cfg.machines.push_back(colocatedMachine(
                {mixEntry(ModelId::DlrmRmc1, 1.0, 64)},
                CpuPlatform::skylake()));
            cfg.modelMix.assign(
                kMaxMixModels + 1,
                mixEntry(ModelId::DlrmRmc1,
                         1.0 / static_cast<double>(kMaxMixModels + 1), 64));
            validateClusterConfig(cfg, "cluster");
        },
        ::testing::ExitedWithCode(1),
        "cluster: a mix of 65537 models exceeds the 65536");
}

// ------------------------------------------------- engine-level batch

TEST(Colocation, NoCrossModelBatchEverForms)
{
    // Drive one MachineEngine directly with interleaved parts of two
    // models whose batch policies differ. Every part must split into
    // exactly ceil(samples / ownBatch) requests — a merged (cross-
    // model) batch would change the request count of some part.
    const size_t batch0 = 64;
    const size_t batch1 = 16;
    const std::vector<ModelMixEntry> mix = {
        mixEntry(ModelId::DlrmRmc1, 0.5, batch0),
        mixEntry(ModelId::WideAndDeep, 0.5, batch1),
    };
    const SimConfig machine = colocatedMachine(mix, CpuPlatform::skylake());
    ASSERT_EQ(machine.numModels(), 2u);
    MachineEngine engine(&machine);

    const uint32_t samples = 100;
    const size_t parts_per_model = 24;
    const uint64_t requests0 = (samples + batch0 - 1) / batch0; // 2
    const uint64_t requests1 = (samples + batch1 - 1) / batch1; // 7

    EventQueue events;
    std::vector<EngineEvent> out;
    for (size_t i = 0; i < 2 * parts_per_model; i++) {
        PartSpec part;
        part.partIdx = i;
        part.samples = samples;
        part.model = static_cast<uint32_t>(i % 2);
        out.clear();
        engine.admit(part, 0.0, out);
        events.pushAll(out, 0);
    }
    // With every part admitted at t=0 the queue is deep.
    EXPECT_GT(engine.queuedCostSeconds(), 0.0);

    std::vector<uint64_t> requests_of_part(2 * parts_per_model, 0);
    size_t finished = 0;
    while (!events.empty()) {
        const SimEvent ev = events.pop();
        ASSERT_EQ(ev.kind, SimEvent::Kind::CpuRequest)
            << "no accelerator configured — only CPU requests exist";
        requests_of_part[ev.partIdx]++;
        out.clear();
        if (engine.cpuRequestDone(ev.slot, ev.partIdx, ev.time, out))
            finished++;
        events.pushAll(out, 0);
    }

    EXPECT_EQ(finished, 2 * parts_per_model);
    for (size_t i = 0; i < requests_of_part.size(); i++) {
        EXPECT_EQ(requests_of_part[i], i % 2 == 0 ? requests0 : requests1)
            << "part " << i << " was not batch-split under its own "
            << "model's policy";
    }
    EXPECT_EQ(engine.requestsDispatched(),
              parts_per_model * (requests0 + requests1));
    // Every stored price was subtracted at dispatch, so the book is
    // back to zero up to ulp-scale floating-point residue (the
    // accessor clamps negatives only).
    EXPECT_NEAR(engine.queuedCostSeconds(), 0.0, 1e-12);
}

TEST(Colocation, JoinPhaseCostIsTheBacklogItsPartAdds)
{
    // A driver commits joinPhaseCostSeconds to its backlog estimate at
    // fan-out, before the dense phase exists. It must equal, bit for
    // bit, what admitting that dense-only leader part adds to the
    // queue: the same split under the model's own batch, the same
    // price per request. 100 samples are a multiple of neither batch,
    // so each split ends in a ragged request.
    const std::vector<ModelMixEntry> mix = {
        mixEntry(ModelId::DlrmRmc1, 0.5, 64),
        mixEntry(ModelId::WideAndDeep, 0.5, 24),
    };
    const SimConfig machine = colocatedMachine(mix, CpuPlatform::skylake());
    const size_t cores = machine.cpu.platform().cores;
    const uint32_t samples = 100;

    std::vector<double> prices;
    for (uint32_t model = 0; model < machine.numModels(); model++) {
        MachineEngine engine(&machine);
        std::vector<EngineEvent> out;
        // Occupy every core with one-request parts admitted one at a
        // time: each is priced in and dispatched at once, so the
        // backlog returns to exactly 0 after each.
        for (size_t c = 0; c < cores; c++) {
            PartSpec busy;
            busy.partIdx = c;
            engine.admit(busy, 0.0, out);
        }
        ASSERT_EQ(engine.busyCores(), cores);
        ASSERT_EQ(std::bit_cast<uint64_t>(engine.queuedCostSeconds()),
                  std::bit_cast<uint64_t>(0.0));

        PartSpec dense;
        dense.partIdx = cores;
        dense.samples = samples;
        dense.embFraction = 0.0;
        dense.leader = true;
        dense.whole = false;
        dense.model = model;
        engine.admit(dense, 0.0, out);
        ASSERT_EQ(out.size(), cores) << "the dense part must queue whole";

        const double price = engine.joinPhaseCostSeconds(samples, model);
        EXPECT_GT(price, 0.0);
        EXPECT_EQ(std::bit_cast<uint64_t>(engine.queuedCostSeconds()),
                  std::bit_cast<uint64_t>(price))
            << "model " << model;
        prices.push_back(price);
    }
    EXPECT_NE(prices[0], prices[1]) << "each binding prices its own model";
}

// ----------------------------------------------- cluster conservation

TEST(Colocation, PerModelConservationUnderOverload)
{
    // Deep overload with load shedding: every model's books must
    // close (offered == completed + droppedFinal + lost) and the
    // per-model books must sum exactly to the fleet totals — no query
    // double-counted, none unattributed, drops included.
    const std::vector<ModelMixEntry> mix = {
        mixEntry(ModelId::DlrmRmc2, 0.4, 256),
        mixEntry(ModelId::WideAndDeep, 0.4, 256),
        mixEntry(ModelId::Ncf, 0.2, 256),
    };
    ClusterConfig cluster;
    for (size_t m = 0; m < 2; m++)
        cluster.machines.push_back(
            colocatedMachine(mix, CpuPlatform::skylake()));
    cluster.modelMix = mix;
    cluster.overload.admission = AdmissionKind::Deadline;
    cluster.overload.deadlineSeconds = 0.05;
    cluster.overload.degrade = true;

    MixedTraceTemplate mixed(mixLoad(), mixFractions(mix));
    mixed.ensure(4000);
    const QueryTrace trace = mixed.materialize(4000.0, 4000);

    const ClusterResult r = ClusterSimulator(cluster).run(
        trace, RoutingSpec{RoutingKind::PowerOfTwoChoices});

    ASSERT_EQ(r.perModel.size(), mix.size());
    EXPECT_GT(r.overload.droppedFinal, 0u)
        << "overload scenario is not biting — nothing was shed";

    uint64_t sum_offered = 0;
    uint64_t sum_dispatched = 0;
    uint64_t sum_completed = 0;
    uint64_t sum_dropped = 0;
    uint64_t sum_lost = 0;
    size_t sum_measured = 0;
    for (uint32_t k = 0; k < mix.size(); k++) {
        const ModelStats& ms = r.perModel[k];
        SCOPED_TRACE(modelName(mix[k].id));
        EXPECT_GT(ms.offered, 0u);
        EXPECT_EQ(ms.offered, ms.completed + ms.droppedFinal + ms.lost);
        sum_offered += ms.offered;
        sum_dispatched += ms.dispatched;
        sum_completed += ms.completed;
        sum_dropped += ms.droppedFinal;
        sum_lost += ms.lost;
        sum_measured += ms.latencySeconds.count();
    }
    EXPECT_EQ(sum_offered, trace.size());
    EXPECT_EQ(sum_offered, r.overload.offered);
    EXPECT_EQ(sum_dispatched, r.numDispatched);
    EXPECT_EQ(sum_completed, r.numCompleted);
    EXPECT_EQ(sum_dropped, r.overload.droppedFinal);
    EXPECT_EQ(sum_lost, 0u);
    EXPECT_EQ(sum_measured, r.fleetLatencySeconds.count());
}

// --------------------------------------------------- tail monotonicity

TEST(Colocation, HeavyModelTailMonotoneInItsOfferedFraction)
{
    // At a fixed total rate on a fixed tier, shifting traffic share
    // toward the heavier co-tenant (embedding-bound RMC2, against the
    // light Wide&Deep) strictly adds work, so RMC2's own p99 must be
    // monotone non-decreasing in its offered fraction.
    const SimConfig machine = colocatedMachine(
        {mixEntry(ModelId::DlrmRmc2, 0.5, 256),
         mixEntry(ModelId::WideAndDeep, 0.5, 256)},
        CpuPlatform::skylake());

    double last_p99 = 0.0;
    for (double fraction : {0.25, 0.5, 0.75}) {
        SCOPED_TRACE(fraction);
        const std::vector<ModelMixEntry> mix = {
            mixEntry(ModelId::DlrmRmc2, fraction, 256),
            mixEntry(ModelId::WideAndDeep, 1.0 - fraction, 256),
        };
        ClusterConfig cluster;
        for (size_t m = 0; m < 3; m++)
            cluster.machines.push_back(machine);
        cluster.modelMix = mix;

        MixedTraceTemplate mixed(mixLoad(1500.0, 0x404),
                                 mixFractions(mix));
        mixed.ensure(5000);
        const QueryTrace trace = mixed.materialize(1500.0, 5000);
        const ClusterResult r = ClusterSimulator(cluster).run(
            trace, RoutingSpec{RoutingKind::PowerOfTwoChoices});

        const double p99 = r.perModel[0].p99Ms();
        EXPECT_GE(p99, last_p99)
            << "RMC2's p99 fell as its own offered fraction rose";
        last_p99 = p99;
    }
}

// ------------------------------------------------ thread-count parity

TEST(ColocationParallelDiff, JsqAndPo2cRoutingBitwiseAcrossThreadCounts)
{
    // Routing a mix reads the queue signals the engines maintain
    // during the run; the search layer above it is the only parallel
    // code. Both must be bitwise thread-invariant: the same per-query
    // routing decisions and the same found rate at 1 and at many
    // threads.
    const std::vector<ModelMixEntry> mix = {
        mixEntry(ModelId::DlrmRmc2, 0.5, 256),
        mixEntry(ModelId::WideAndDeep, 0.5, 256),
    };
    ClusterConfig cluster;
    for (size_t m = 0; m < 3; m++)
        cluster.machines.push_back(
            colocatedMachine(mix, CpuPlatform::skylake()));
    cluster.modelMix = mix;

    MixedTraceTemplate mixed(mixLoad(2200.0, 0x505), mixFractions(mix));
    mixed.ensure(4000);
    const QueryTrace trace = mixed.materialize(2200.0, 4000);

    for (RoutingKind kind : {RoutingKind::JoinShortestQueue,
                             RoutingKind::PowerOfTwoChoices}) {
        SCOPED_TRACE(routingKindName(kind));
        ClusterQpsSpec spec;
        spec.slaMs = 200.0;
        spec.routing.kind = kind;

        ThreadPool::setSharedThreads(1);
        const ClusterResult serial_run = ClusterSimulator(cluster).run(
            trace, RoutingSpec{kind});
        const ClusterQpsResult serial =
            findClusterMaxQps(cluster, spec);

        ThreadPool::setSharedThreads(8);
        const ClusterResult parallel_run = ClusterSimulator(cluster).run(
            trace, RoutingSpec{kind});
        const ClusterQpsResult parallel =
            findClusterMaxQps(cluster, spec);
        ThreadPool::setSharedThreads(1);

        // Routing decisions, query for query.
        EXPECT_EQ(serial_run.machineOfQuery, parallel_run.machineOfQuery);
        EXPECT_EQ(serial_run.fleetLatencySeconds.raw(),
                  parallel_run.fleetLatencySeconds.raw());

        // The search evaluated the same candidates and found the
        // same rate.
        EXPECT_EQ(serial.maxQps, parallel.maxQps);
        EXPECT_EQ(serial.evaluations, parallel.evaluations);
        ASSERT_EQ(serial.atMax.perModel.size(),
                  parallel.atMax.perModel.size());
        for (size_t k = 0; k < serial.atMax.perModel.size(); k++) {
            EXPECT_EQ(serial.atMax.perModel[k].offered,
                      parallel.atMax.perModel[k].offered);
            EXPECT_EQ(serial.atMax.perModel[k].latencySeconds.raw(),
                      parallel.atMax.perModel[k].latencySeconds.raw());
        }
    }
}

// ------------------------------------------------ latency books

/**
 * Six colocated machines with every feature on: a sharded three-model
 * mix under the TwoStage join, deadline admission with degrade,
 * crashes and gray windows, and (when @p hedge) hedged fan-out parts.
 */
ClusterConfig
fullStackTier(bool hedge)
{
    const std::vector<ModelMixEntry> mix = {
        mixEntry(ModelId::DlrmRmc2, 0.4, 256),
        mixEntry(ModelId::WideAndDeep, 0.4, 256),
        mixEntry(ModelId::Ncf, 0.2, 256),
    };
    ClusterConfig cluster;
    for (size_t m = 0; m < 6; m++)
        cluster.machines.push_back(colocatedMachine(
            mix, CpuPlatform::skylake(), 2'000'000'000ULL));
    PlacementSpec placement;
    placement.strategy = PlacementStrategy::GreedyBySize;
    placement.minReplicas = 2;
    cluster.sharding = colocatedSharding(
        mix, machineMemoryBudgets(cluster.machines), placement, 6);
    cluster.modelMix = mix;
    cluster.network.hopSeconds = 150e-6;
    cluster.network.gigabytesPerSecond = 12.5;
    cluster.join = JoinModel::TwoStage;
    cluster.overload.admission = AdmissionKind::Deadline;
    cluster.overload.deadlineSeconds = 0.1;
    cluster.overload.degrade = true;
    cluster.faults.seed = 0xb00c5;
    cluster.faults.crashesPerHour = 6000.0;
    cluster.faults.repairSeconds = 0.3;
    cluster.faults.grayPerHour = 6000.0;
    cluster.faults.grayDurationSeconds = 0.3;
    cluster.faults.faultTolerance = 1;
    cluster.faults.maxFailovers = 3;
    if (hedge)
        cluster.hedge.delaySeconds = 0.03;
    return cluster;
}

QueryTrace
fullStackTrace(const ClusterConfig& cluster)
{
    MixedTraceTemplate mixed(mixLoad(3000.0, 0x707),
                             mixFractions(cluster.modelMix));
    mixed.ensure(4000);
    return mixed.materialize(3000.0, 4000);
}

/**
 * Each book of @p books is an in-order subsequence of the fleet book,
 * held at capacity == size, whose sum() is its in-order re-sum
 * bitwise; together the books hold exactly the fleet's samples.
 */
template <typename Stats>
void
expectBooksTileFleet(const SampleStats& fleet,
                     const std::vector<Stats>& books)
{
    const std::vector<double>& all = fleet.raw();
    std::vector<double> pooled;
    for (size_t i = 0; i < books.size(); i++) {
        SCOPED_TRACE(i);
        const std::vector<double>& raw = books[i].latencySeconds.raw();
        EXPECT_EQ(raw.capacity(), raw.size());
        double sum = 0.0;
        auto at = all.begin();
        for (double v : raw) {
            sum += v;
            at = std::find(at, all.end(), v);
            ASSERT_NE(at, all.end()) << "not in fleet order";
            ++at;
        }
        EXPECT_EQ(std::bit_cast<uint64_t>(sum),
                  std::bit_cast<uint64_t>(books[i].latencySeconds.sum()));
        pooled.insert(pooled.end(), raw.begin(), raw.end());
    }
    EXPECT_EQ(pooled.size(), all.size());
    std::vector<double> sorted_fleet = all;
    std::sort(pooled.begin(), pooled.end());
    std::sort(sorted_fleet.begin(), sorted_fleet.end());
    EXPECT_EQ(pooled, sorted_fleet);
}

TEST(Colocation, LatencyBooksAreTheFleetBookFilteredOnAFullStackTier)
{
    const ClusterConfig cluster = fullStackTier(true);
    const QueryTrace trace = fullStackTrace(cluster);
    const ClusterResult r = ClusterSimulator(cluster).run(
        trace, RoutingSpec{RoutingKind::ShardAware});

    // Every feature the books must survive actually fired.
    EXPECT_GT(r.meanFanout, 1.0);
    EXPECT_GT(r.overload.degraded, 0u);
    EXPECT_GT(r.faults.crashes, 0u);
    EXPECT_GT(r.faults.hedged, 0u);
    ASSERT_GT(r.numQueries, 0u);

    ASSERT_EQ(r.perModel.size(), cluster.modelMix.size());
    for (const ModelStats& ms : r.perModel)
        EXPECT_GT(ms.latencySeconds.count(), 0u);
    expectBooksTileFleet(r.fleetLatencySeconds, r.perMachine);
    expectBooksTileFleet(r.fleetLatencySeconds, r.perModel);
}

TEST(Colocation, ElasticLatencyBooksAreTheFleetBookFiltered)
{
    // The elastic tier refuses hedging; everything else stays on.
    AutoscaleSpec spec;
    spec.cluster = fullStackTier(false);
    spec.routing.kind = RoutingKind::ShardAware;
    spec.slaMs = 80.0;
    spec.controlIntervalSeconds = 0.25;
    spec.warmupDelaySeconds = 0.15;
    const QueryTrace trace = fullStackTrace(spec.cluster);
    ScalingPolicySpec policy;
    policy.minMachines = 3;
    const AutoscaleResult r = Autoscaler(spec).run(trace, policy);

    EXPECT_GT(r.meanFanout, 1.0);
    EXPECT_GT(r.overload.degraded, 0u);
    EXPECT_GT(r.faults.crashes, 0u);
    ASSERT_GT(r.numQueries, 0u);
    EXPECT_TRUE(r.perModel.empty());
    expectBooksTileFleet(r.fleetLatencySeconds, r.perMachine);
}

} // namespace
} // namespace deeprecsys
