/**
 * @file
 * Unit and integration tests of the observability layer: metric
 * registry semantics (counter monotonicity, histogram clamping,
 * zero-backfill alignment), deterministic span sampling, driver
 * integration invariants (snapshot axis == control-tick axis, the
 * attribution identity against the drivers' own latency statistics),
 * the bitwise-identical-output contract across thread counts, and
 * the exact output of fixed observed runs on both cluster drivers.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <numeric>
#include <sstream>
#include <string>

#include "base/thread_pool.hh"
#include "bench/bench_common.hh"
#include "cluster/autoscaler.hh"
#include "cluster/cluster_sim.hh"
#include "cluster/model_mix.hh"
#include "loadgen/query_stream.hh"
#include "obs/metrics.hh"
#include "obs/observer.hh"
#include "tests/busy_tier.hh"
#include "tests/fixtures.hh"

namespace deeprecsys {
namespace {

/** The registry's JSON document, as a run writes it. */
std::string
jsonOf(const obs::MetricRegistry& reg)
{
    std::ostringstream oss;
    reg.writeJson(oss);
    return oss.str();
}

// ------------------------------------------------------------ metrics

TEST(MetricRegistry, CounterPointsAreCumulativeAndMonotone)
{
    obs::MetricRegistry reg;
    obs::Counter& c = reg.counter("events");
    reg.snapshot(0.0);
    c.add(3);
    reg.snapshot(1.0);
    c.add();
    reg.snapshot(2.0);
    reg.snapshot(3.0);   // idle window: the cumulative value holds

    EXPECT_NE(jsonOf(reg).find("{\"name\": \"events\", \"type\": "
                               "\"counter\", \"points\": [0, 3, 4, 4]}"),
              std::string::npos);
}

TEST(MetricRegistry, GaugeRecordsLastWrittenValue)
{
    obs::MetricRegistry reg;
    obs::Gauge& g = reg.gauge("machines");
    g.set(4.0);
    g.set(7.0);
    reg.snapshot(0.5);
    reg.snapshot(1.5);   // no write between: the reading persists
    EXPECT_EQ(reg.gaugePoints("machines"),
              (std::vector<double>{7.0, 7.0}));
}

TEST(WindowHistogram, ClampsOutOfRangeSamplesToEdgeBins)
{
    obs::WindowHistogram h(0.0, 10.0, 5);
    h.add(-3.0);     // below lo: first bin
    h.add(0.0);      // first bin
    h.add(9.999);    // last in-range bin
    h.add(10.0);     // hi is exclusive: clamps to last bin
    h.add(1e9);      // far above: last bin
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(4), 3u);
    EXPECT_EQ(h.windowCount(), 5u);
}

TEST(WindowHistogram, RegistrySnapshotsResetTheWindow)
{
    obs::MetricRegistry reg;
    obs::WindowHistogram& h = reg.histogram("lat", 0.0, 10.0, 2);
    h.add(1.0);
    h.add(6.0);
    reg.snapshot(1.0);
    EXPECT_EQ(h.windowCount(), 0u);   // reset after the point
    h.add(6.0);
    reg.snapshot(2.0);

    std::ostringstream oss;
    reg.writeJson(oss);
    // First window [1, 1], second [0, 1] — windowed, not cumulative.
    EXPECT_NE(oss.str().find("[[1, 1], [0, 1]]"), std::string::npos);
}

TEST(MetricRegistry, LateRegistrationBackfillsZerosOnTheSnapshotAxis)
{
    obs::MetricRegistry reg;
    reg.counter("early");
    reg.snapshot(0.0);
    reg.snapshot(1.0);
    obs::Counter& late = reg.counter("late");
    late.add(9);
    reg.snapshot(2.0);

    const std::string json = jsonOf(reg);
    EXPECT_NE(json.find("\"late\", \"type\": \"counter\", "
                        "\"points\": [0, 0, 9]}"),
              std::string::npos);
    EXPECT_NE(json.find("\"early\", \"type\": \"counter\", "
                        "\"points\": [0, 0, 0]}"),
              std::string::npos);
    EXPECT_EQ(reg.snapshotTimes(),
              (std::vector<double>{0.0, 1.0, 2.0}));
}

TEST(MetricRegistry, EmptyRegistrySerializesValidSkeleton)
{
    obs::MetricRegistry reg;
    reg.snapshot(0.25);
    std::ostringstream oss;
    reg.writeJson(oss);
    EXPECT_NE(oss.str().find("\"snapshots_s\": [0.25]"),
              std::string::npos);
    EXPECT_NE(oss.str().find("\"metrics\": []"), std::string::npos);
}

// ----------------------------------------------------------- sampling

TEST(SpanSampling, PureFunctionOfIndexAndSeed)
{
    for (uint64_t idx : {0ull, 1ull, 17ull, 123456789ull}) {
        EXPECT_EQ(obs::sampledIndex(idx, 0.3, 42),
                  obs::sampledIndex(idx, 0.3, 42));
        EXPECT_FALSE(obs::sampledIndex(idx, 0.0, 42));
        EXPECT_TRUE(obs::sampledIndex(idx, 1.0, 42));
    }
}

TEST(SpanSampling, HitsTheRequestedRateApproximately)
{
    const size_t n = 20000;
    size_t hits = 0;
    for (size_t i = 0; i < n; i++)
        hits += obs::sampledIndex(i, 0.25, 0x9e3779b97f4a7c15ULL);
    const double rate = static_cast<double>(hits) / n;
    EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(SpanSampling, DifferentSeedsSampleDifferentSets)
{
    size_t differ = 0;
    for (size_t i = 0; i < 1000; i++)
        differ += obs::sampledIndex(i, 0.5, 1) !=
            obs::sampledIndex(i, 0.5, 2);
    EXPECT_GT(differ, 300u);
}

// ------------------------------------------------- driver integration

SimConfig
testMachine()
{
    return bench::cpuMachine(128);
}

/** testMachine alone behind the zero-cost router. */
ClusterConfig
singleMachine()
{
    ClusterConfig cluster;
    cluster.machines = {testMachine()};
    return cluster;
}

TEST(ObserverServing, AttributionMatchesTheSimulatorsOwnLatency)
{
    obs::RunObserver observer(obs::ObsConfig::full(0.1), 1);
    ClusterSimulator sim(singleMachine());
    sim.setObserver(&observer);
    const ClusterResult r = sim.run(makeTrace(4000, 500.0, 1), RoutingSpec{});

    const obs::StageSplit& split = observer.stageSplit();
    EXPECT_EQ(split.queries, r.numQueries);

    // The split partitions each measured query's latency, so the
    // total must equal the simulator's own summed latency; a single
    // machine behind a zero-cost router has no network hops and
    // nothing to join on.
    const std::vector<double>& raw = r.fleetLatencySeconds.raw();
    const double latency_sum =
        std::accumulate(raw.begin(), raw.end(), 0.0);
    EXPECT_NEAR(split.totalSeconds, latency_sum,
                1e-9 * std::max(1.0, latency_sum));
    EXPECT_NEAR(split.queueSeconds + split.serviceSeconds,
                split.totalSeconds,
                1e-9 * std::max(1.0, latency_sum));
    EXPECT_EQ(split.networkSeconds, 0.0);
    EXPECT_EQ(split.joinWaitSeconds, 0.0);
    EXPECT_GT(split.serviceSeconds, 0.0);
}

TEST(ObserverServing, ObservingARunDoesNotChangeIt)
{
    const QueryTrace trace = makeTrace(3000, 500.0, 1);
    const ClusterResult base =
        ClusterSimulator(singleMachine()).run(trace, RoutingSpec{});

    obs::RunObserver observer(obs::ObsConfig::full(0.5), 1);
    ClusterSimulator observed(singleMachine());
    observed.setObserver(&observer);
    const ClusterResult r = observed.run(trace, RoutingSpec{});

    EXPECT_EQ(r.numQueries, base.numQueries);
    EXPECT_EQ(r.fleetLatencySeconds.raw(), base.fleetLatencySeconds.raw());
}

ClusterConfig
shardedCluster(size_t machines)
{
    ModelMixEntry rmc2;
    rmc2.id = ModelId::DlrmRmc2;
    rmc2.policy.perRequestBatch = 128;
    const std::vector<ModelMixEntry> mix = {rmc2};
    ClusterConfig cluster;
    cluster.machines.assign(machines,
                            colocatedMachine(mix, CpuPlatform::skylake(),
                                             1'500'000'000ULL));
    cluster.network.hopSeconds = 100e-6;
    cluster.network.gigabytesPerSecond = 12.5;
    cluster.sharding = colocatedSharding(
        mix, machineMemoryBudgets(cluster.machines), PlacementSpec{}, 4);
    return cluster;
}

TEST(ObserverCluster, ShardedAttributionPartitionsTheLatency)
{
    obs::RunObserver observer(obs::ObsConfig::full(0.1), 8);
    ClusterSimulator sim(shardedCluster(8));
    sim.setObserver(&observer);
    const ClusterResult r = sim.run(
        makeTrace(3000, 800.0, 1), RoutingSpec{RoutingKind::ShardAware});

    const obs::StageSplit& split = observer.stageSplit();
    EXPECT_EQ(split.queries, r.numQueries);
    EXPECT_GE(split.joinWaitSeconds, 0.0);
    EXPECT_GT(split.networkSeconds, 0.0);   // the fan-out hops

    const std::vector<double>& raw = r.fleetLatencySeconds.raw();
    const double latency_sum =
        std::accumulate(raw.begin(), raw.end(), 0.0);
    EXPECT_NEAR(split.totalSeconds, latency_sum,
                1e-9 * std::max(1.0, latency_sum));
    // The four buckets partition the total (network is the residual).
    EXPECT_NEAR(split.queueSeconds + split.serviceSeconds +
                    split.networkSeconds + split.joinWaitSeconds,
                split.totalSeconds,
                1e-9 * std::max(1.0, latency_sum));

    // Shard-aware routing feeds the per-table load counters; every
    // routed query touches tablesPerQuery of them.
    const size_t num_tables =
        embeddingTables(modelConfig(ModelId::DlrmRmc2)).size();
    uint64_t table_hits = 0;
    for (size_t t = 0; t < num_tables; t++)
        table_hits += observer.metrics()
                          .counter("table_load_" + std::to_string(t))
                          .value();
    EXPECT_EQ(table_hits, r.numDispatched * 4);
}

AutoscaleSpec
elasticSpec(size_t machines)
{
    AutoscaleSpec spec;
    for (size_t m = 0; m < machines; m++)
        spec.cluster.machines.push_back(testMachine());
    spec.routing.kind = RoutingKind::PowerOfTwoChoices;
    spec.slaMs = 100.0;
    spec.controlIntervalSeconds = 0.5;
    spec.warmupDelaySeconds = 0.25;
    spec.profile = DiurnalProfile(2.0, 10.0);
    spec.meanQps = 600.0;
    spec.machinesAtPeak = machines;
    return spec;
}

TEST(ObserverAutoscaler, SnapshotAxisIsTheControlTickAxis)
{
    obs::RunObserver observer(obs::ObsConfig::full(0.05), 3);
    Autoscaler scaler(elasticSpec(3));
    scaler.setObserver(&observer);
    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Reactive;
    const AutoscaleResult r = scaler.run(makeTrace(6000, 600.0, 1), policy);

    const std::vector<double>& snaps =
        observer.metrics().snapshotTimes();
    ASSERT_EQ(snaps.size(), r.timeline.size());
    for (size_t w = 0; w < snaps.size(); w++)
        EXPECT_EQ(snaps[w], r.timeline[w].endSeconds);

    // The mirrored gauges carry the timeline's own readings.
    const std::vector<double> machines =
        observer.metrics().gaugePoints("machines");
    ASSERT_EQ(machines.size(), r.timeline.size());
    for (size_t w = 0; w < machines.size(); w++)
        EXPECT_EQ(machines[w],
                  static_cast<double>(r.timeline[w].servingMachines));
}

TEST(ObserverAutoscaler, OutputBytesIdenticalAcrossThreadCounts)
{
    const QueryTrace trace = makeTrace(5000, 600.0, 1);
    auto run_and_serialize = [&](size_t threads) {
        ThreadPool::setSharedThreads(threads);
        obs::RunObserver observer(obs::ObsConfig::full(0.1), 3);
        Autoscaler scaler(elasticSpec(3));
        scaler.setObserver(&observer);
        ScalingPolicySpec policy;
        policy.kind = ScalingPolicyKind::Reactive;
        scaler.run(trace, policy);
        std::ostringstream trace_os, metrics_os;
        observer.writeTrace(trace_os);
        observer.writeMetrics(metrics_os);
        ThreadPool::setSharedThreads(1);
        return std::make_pair(trace_os.str(), metrics_os.str());
    };

    const auto serial = run_and_serialize(1);
    const auto parallel = run_and_serialize(8);
    EXPECT_EQ(serial.first, parallel.first);
    EXPECT_EQ(serial.second, parallel.second);
    EXPECT_NE(serial.first.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(serial.second.find("\"snapshots_s\""), std::string::npos);
}

// --------------------------------------------------- pinned outputs

/** An observed run's products, reduced to exact values. */
struct ObservedPins
{
    /** Bits of the split's queue, service, network, join-wait and
     *  total seconds. */
    std::array<uint64_t, 5> splitBits;
    uint64_t queries;
    size_t traceEvents;
    /** FNV-1a 64 of the trace bytes followed by the metrics bytes. */
    uint64_t outputHash;

    bool operator==(const ObservedPins&) const = default;
};

std::ostream&
operator<<(std::ostream& os, const ObservedPins& p)
{
    os << std::hex << "{{0x" << p.splitBits[0] << ", 0x" << p.splitBits[1]
       << ", 0x" << p.splitBits[2] << ", 0x" << p.splitBits[3] << ", 0x"
       << p.splitBits[4] << "}, " << std::dec << p.queries << ", "
       << p.traceEvents << ", 0x" << std::hex << p.outputHash << "}"
       << std::dec;
    return os;
}

ObservedPins
pinsOf(const obs::RunObserver& observer)
{
    std::ostringstream bytes;
    observer.writeTrace(bytes);
    observer.writeMetrics(bytes);
    Fnv1a hash;
    const std::string text = bytes.str();
    hash.bytes(text.data(), text.size());
    const obs::StageSplit& s = observer.stageSplit();
    return {{std::bit_cast<uint64_t>(s.queueSeconds),
             std::bit_cast<uint64_t>(s.serviceSeconds),
             std::bit_cast<uint64_t>(s.networkSeconds),
             std::bit_cast<uint64_t>(s.joinWaitSeconds),
             std::bit_cast<uint64_t>(s.totalSeconds)},
            s.queries,
            observer.numTraceEvents(),
            hash.value()};
}

// The observer's stage split, event count and trace and metrics bytes
// on runs where every hook fires: crashes, failovers, hedges, client
// retries, TwoStage join phases and, on the single machine, queueing.
// A change to what the observer records, or to when a driver stamps a
// query, moves them.

TEST(ObserverPinned, StaticHedgedChaoticRetryTier)
{
    ClusterConfig cfg = retryTier();
    cfg.hedge.delaySeconds = 0.01;
    obs::RunObserver observer(obs::ObsConfig::full(1.0),
                              cfg.machines.size());
    const ClusterResult r = runStatic(cfg, busyTrace(), &observer);
    EXPECT_GT(r.faults.failovers, 0u);
    EXPECT_GT(r.faults.hedged, 0u);
    EXPECT_GT(r.overload.retried, 0u);
    const ObservedPins pinned{{0x0, 0x4032858e5e6d3058, 0x3ff1959f95db3ebc,
                                0x3fec779675647d9a, 0x403482a50b760822},
                               3623, 39176, 0xc4d3cbd0d55971c1};
    EXPECT_EQ(pinsOf(observer), pinned);
}

TEST(ObserverPinned, ElasticHedgedChaoticRetryTier)
{
    ClusterConfig cfg = retryTier();
    cfg.hedge.delaySeconds = 0.01;
    const AutoscaleSpec spec = elasticSpec(cfg);
    obs::RunObserver observer(obs::ObsConfig::full(1.0),
                              cfg.machines.size());
    const AutoscaleResult r = runElastic(spec, busyTrace(), &observer);
    EXPECT_GT(r.faults.failovers, 0u);
    EXPECT_GT(r.faults.hedged, 0u);
    EXPECT_GT(r.overload.retried, 0u);
    const ObservedPins pinned{{0x0, 0x4031f8518b93e5ad, 0x3ff0bb208fddfd27,
                                0x3fe884ec9693209a, 0x4033c82af9465e8e},
                               3447, 38155, 0x60e52e0f63702e98};
    EXPECT_EQ(pinsOf(observer), pinned);
}

TEST(ObserverPinned, SingleMachineTier)
{
    obs::RunObserver observer(obs::ObsConfig::full(1.0), 1);
    ClusterSimulator sim(singleMachine());
    sim.setObserver(&observer);
    sim.run(makeTrace(3000, 2200.0, 1), RoutingSpec{});
    const ObservedPins pinned{{0x408316846717c90d, 0x4043d8965947f4b8, 0x0,
                                0x0, 0x4084540dccac4850},
                               2850, 8862, 0x56edec49c00e17ed};
    EXPECT_EQ(pinsOf(observer), pinned);
}

TEST(Observer, EmptyRunStillWritesValidDocuments)
{
    obs::RunObserver observer(obs::ObsConfig::full(1.0), 2);
    observer.onRunStart(0.0);
    observer.snapshot(0.0);

    std::ostringstream trace_os, metrics_os;
    observer.writeTrace(trace_os);
    observer.writeMetrics(metrics_os);
    // Process-name metadata is present even with no spans.
    EXPECT_NE(trace_os.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace_os.str().find("process_name"), std::string::npos);
    EXPECT_NE(metrics_os.str().find("\"snapshots_s\": [0]"),
              std::string::npos);
    EXPECT_EQ(observer.stageSplit().queries, 0u);
}

} // namespace
} // namespace deeprecsys
