/**
 * @file
 * Golden regression tests: small deterministic traces with checked-in
 * expected latency percentiles (JSON under tests/golden/). Every
 * scenario follows a figure-reproduction path — the single-machine
 * fig11 operating points, the fig07 fleet subsample, the fig13 fleet
 * day, the cluster_routing_sweep policies, and the sharded
 * fan-out/join paths — so an engine refactor that shifts numbers fails loudly here
 * instead of silently redrawing figures.
 *
 * When a shift is *intended* (a modeling change), regenerate with:
 *
 *     DRS_UPDATE_GOLDEN=1 ./build/test_golden
 *
 * and commit the diff alongside the change that explains it.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>

#include "bench/bench_common.hh"
#include "cluster/cluster_sim.hh"
#include "cluster/fleet.hh"
#include "cluster/model_mix.hh"
#include "loadgen/query_stream.hh"
#include "sim/serving_sim.hh"
#include "tests/fixtures.hh"

#ifndef DRS_GOLDEN_DIR
#error "build must define DRS_GOLDEN_DIR (see CMakeLists.txt)"
#endif

namespace deeprecsys {
namespace {

/** One scenario's pinned metrics, keyed by metric name. */
using GoldenRow = std::map<std::string, double>;

using GoldenMap = std::map<std::string, GoldenRow>;

// ------------------------------------------------- tiny flat JSON I/O
// The golden files are a generic two-level schema:
//   {"scenario": {"metric": 1.0, ...}, ...}
// with both levels written in alphabetical (std::map) order. Parsed
// here directly so the test needs no JSON dependency.

void
skipSpace(const std::string& s, size_t& i)
{
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
        i++;
}

std::string
parseString(const std::string& s, size_t& i)
{
    EXPECT_LT(i, s.size());
    EXPECT_EQ(s[i], '"') << "expected string at offset " << i;
    i++;
    std::string out;
    while (i < s.size() && s[i] != '"')
        out.push_back(s[i++]);
    EXPECT_LT(i, s.size()) << "unterminated string";
    i++;
    return out;
}

double
parseNumber(const std::string& s, size_t& i)
{
    size_t consumed = 0;
    const double v = std::stod(s.substr(i), &consumed);
    i += consumed;
    return v;
}

void
expectChar(const std::string& s, size_t& i, char c)
{
    skipSpace(s, i);
    ASSERT_LT(i, s.size()) << "expected '" << c << "' at end of input";
    ASSERT_EQ(s[i], c) << "at offset " << i;
    i++;
}

GoldenMap
parseGolden(const std::string& text)
{
    GoldenMap golden;
    size_t i = 0;
    expectChar(text, i, '{');
    skipSpace(text, i);
    while (i < text.size() && text[i] != '}') {
        const std::string name = parseString(text, i);
        expectChar(text, i, ':');
        expectChar(text, i, '{');
        GoldenRow p;
        skipSpace(text, i);
        while (i < text.size() && text[i] != '}') {
            const std::string key = parseString(text, i);
            expectChar(text, i, ':');
            skipSpace(text, i);
            p[key] = parseNumber(text, i);
            skipSpace(text, i);
            if (text[i] == ',') {
                i++;
                skipSpace(text, i);
            }
        }
        expectChar(text, i, '}');
        golden[name] = p;
        skipSpace(text, i);
        if (i < text.size() && text[i] == ',') {
            i++;
            skipSpace(text, i);
        }
    }
    expectChar(text, i, '}');
    return golden;
}

void
writeGolden(const std::string& path, const GoldenMap& golden)
{
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << "{\n";
    size_t n = 0;
    for (const auto& [name, row] : golden) {
        out << "  \"" << name << "\": {" << std::setprecision(17);
        size_t k = 0;
        for (const auto& [key, value] : row) {
            out << "\"" << key << "\": " << value
                << (++k < row.size() ? ", " : "");
        }
        out << "}" << (++n < golden.size() ? "," : "") << "\n";
    }
    out << "}\n";
}

bool
updateRequested()
{
    const char* env = std::getenv("DRS_UPDATE_GOLDEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/**
 * Compare @p measured against the checked-in file (or rewrite it when
 * DRS_UPDATE_GOLDEN is set). Tolerance is relative 1e-9: loose enough
 * for cross-platform libm jitter, tight enough that any real modeling
 * change trips it.
 */
void
checkGolden(const std::string& file, const GoldenMap& measured)
{
    const std::string path = std::string(DRS_GOLDEN_DIR) + "/" + file;
    if (updateRequested()) {
        writeGolden(path, measured);
        SUCCEED() << "rewrote " << path;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " — run DRS_UPDATE_GOLDEN=1 ./test_golden to create it";
    std::stringstream buf;
    buf << in.rdbuf();
    const GoldenMap expected = parseGolden(buf.str());

    ASSERT_EQ(expected.size(), measured.size()) << "scenario set changed";
    for (const auto& [name, want] : expected) {
        auto it = measured.find(name);
        ASSERT_NE(it, measured.end()) << "scenario " << name
                                      << " disappeared";
        const GoldenRow& got = it->second;
        ASSERT_EQ(got.size(), want.size())
            << name << " metric set changed";
        for (const auto& [key, value] : want) {
            auto metric = got.find(key);
            ASSERT_NE(metric, got.end())
                << name << " lost metric " << key;
            EXPECT_NEAR(metric->second, value,
                        1e-9 * std::abs(value) + 1e-12)
                << name << " " << key << " shifted";
        }
    }
}

GoldenRow
percentilesOf(const SampleStats& stats)
{
    return {{"p50_ms", stats.percentile(50) * 1e3},
            {"p95_ms", stats.percentile(95) * 1e3},
            {"p99_ms", stats.percentile(99) * 1e3}};
}

// ----------------------------------------------------------- scenarios

TEST(Golden, ServingSimFig11Paths)
{
    // The single-machine operating points the fig11/fig09 sweeps
    // visit: production query sizes at sub-saturation load on
    // Skylake, at the static baseline batch, a tuned batch, and the
    // GPU-offload path.
    GoldenMap measured;

    struct Case
    {
        const char* name;
        ModelId model;
        size_t batch;
        bool gpu;
        uint32_t threshold;
        double qps;
    };
    const Case cases[] = {
        {"rmc1_static_batch25", ModelId::DlrmRmc1, 25, false, 1, 600.0},
        {"rmc1_batch256", ModelId::DlrmRmc1, 256, false, 1, 600.0},
        {"rmc2_batch256", ModelId::DlrmRmc2, 256, false, 1, 300.0},
        {"din_batch64", ModelId::Din, 64, false, 1, 150.0},
        {"rmc1_gpu_threshold300", ModelId::DlrmRmc1, 256, true, 300,
         900.0},
    };
    for (const Case& c : cases) {
        const ModelProfile profile = ModelProfile::forModel(c.model);
        SchedulerPolicy policy;
        policy.perRequestBatch = c.batch;
        policy.gpuEnabled = c.gpu;
        policy.gpuQueryThreshold = c.threshold;
        SimConfig cfg{CpuCostModel(profile, CpuPlatform::skylake()),
                      std::nullopt, policy};
        if (c.gpu)
            cfg.bindings[0].gpu.emplace(profile, GpuPlatform::gtx1080Ti());
        ServingSimulator sim(cfg);
        const SimResult r = sim.run(makeTrace(4000, c.qps, 0xf1611));
        measured[c.name] = percentilesOf(r.queryLatencySeconds);
    }
    checkGolden("serving_fig11.json", measured);
}

TEST(Golden, FleetFig13Path)
{
    // A compressed fig13 day: heterogeneous fleet, diurnal windows,
    // fixed vs tuned batch.
    GoldenMap measured;
    for (const auto& [name, batch] :
         {std::pair<const char*, size_t>{"fleet_fixed_batch25", 25},
          std::pair<const char*, size_t>{"fleet_tuned_batch128", 128}}) {
        const SimConfig machine = bench::cpuMachine(batch);
        FleetConfig cfg;
        cfg.numMachines = 12;
        cfg.perMachineQps = 540.0;
        cfg.queriesPerWindow = 400;
        cfg.numWindows = 3;
        cfg.diurnalPeakToTrough = 2.0;
        cfg.seed = 20200530;
        const FleetResult r = FleetSimulator(machine, cfg).run();
        measured[name] = percentilesOf(r.fleetLatency);
    }
    checkGolden("fleet_fig13.json", measured);
}

TEST(Golden, FleetFig07Path)
{
    // A compressed fig07 fleet: fig07's milder heterogeneity over one
    // window, with the pooled fleet and a machine subsample.
    const SimConfig machine = bench::cpuMachine(256);
    FleetConfig cfg;
    cfg.numMachines = 16;
    cfg.perMachineQps = 1200.0;
    cfg.queriesPerWindow = 400;
    cfg.speedSigma = 0.04;
    cfg.interferenceProb = 0.08;
    cfg.interferenceSlowdown = 1.10;
    cfg.seed = 4321;
    const FleetResult r = FleetSimulator(machine, cfg).run();
    GoldenMap measured;
    measured["fleet"] = percentilesOf(r.fleetLatency);
    measured["subsample"] = percentilesOf(r.subsample({3, 7, 11, 14}));
    checkGolden("fleet_fig07.json", measured);
}

TEST(Golden, ClusterRoutingSweepPaths)
{
    // The cluster_routing_sweep bench path: one global stream over a
    // heterogeneous 8-machine tier, every self-contained policy.
    ClusterConfig cluster;
    for (size_t m = 0; m < 8; m++) {
        SimConfig machine = bench::cpuMachine(256);
        machine.slowdown = m % 2 == 0 ? 1.0 : 1.3;
        cluster.machines.push_back(machine);
    }
    const QueryTrace trace = makeTrace(6000, 9000.0, 0xc1u);

    GoldenMap measured;
    const ClusterSimulator sim(cluster);
    for (RoutingKind kind : allRoutingKinds()) {
        RoutingSpec spec;
        spec.kind = kind;
        const ClusterResult r = sim.run(trace, spec);
        measured[routingKindName(kind)] =
            percentilesOf(r.fleetLatencySeconds);
    }
    checkGolden("cluster_routing.json", measured);
}

TEST(Golden, ShardedFanOutJoinPaths)
{
    // The shard_placement_sweep path at one operating point, under
    // both join models — pins the two-stage fan-out tax.
    const QueryTrace trace = makeTrace(5000, 2200.0, 0x5a4d);

    GoldenMap measured;
    for (JoinModel join : {JoinModel::Optimistic, JoinModel::TwoStage}) {
        ClusterConfig cluster = bench::rmc2ShardedTier(8, 2'000'000'000ULL);
        ASSERT_TRUE(cluster.sharding->placement.feasible());
        cluster.join = join;

        const ClusterResult r = ClusterSimulator(cluster).run(
            trace, RoutingSpec{RoutingKind::ShardAware});
        measured[std::string("sharded_") + joinModelName(join)] =
            percentilesOf(r.fleetLatencySeconds);
    }
    checkGolden("sharded_join.json", measured);
}

TEST(Golden, OverloadGoodputCurve)
{
    // The goodput-vs-offered-load curve of a sharded RMC2 tier under
    // deadline admission with degraded serving — pins the whole drop
    // path: backlog estimation, shrink schedule, drop decisions, and
    // quality-weighted goodput accounting, from well under the knee
    // to deep overload.

    ClusterConfig cluster = bench::rmc2ShardedTier(8, 2'000'000'000ULL);
    ASSERT_TRUE(cluster.sharding->placement.feasible());
    cluster.overload.admission = AdmissionKind::Deadline;
    cluster.overload.deadlineSeconds = 0.1;
    cluster.overload.degrade = true;

    // One drawn population re-timed per offered rate, so the curve
    // varies only in arrival pacing.
    LoadSpec load;
    load.arrivalSeed = 0x600d;
    load.sizeSeed = 0x600e;
    TraceTemplate tmpl(load);
    tmpl.ensure(4000);

    GoldenMap measured;
    for (double qps : {1500.0, 2500.0, 3500.0, 5000.0}) {
        const QueryTrace trace = tmpl.materialize(qps, 4000);
        const ClusterResult r = ClusterSimulator(cluster).run(
            trace, RoutingSpec{RoutingKind::ShardAware});
        EXPECT_EQ(r.overload.dropped + r.numDispatched, trace.size());
        // The admission estimator prices the full two-stage critical
        // path, so the admitted tail settles at the deadline instead
        // of 1.5-2x over it — at every offered rate, not just under
        // the knee (1.15x absorbs the discretization of the last
        // admitted query).
        EXPECT_LE(r.p99Ms(),
                  1.15 * cluster.overload.deadlineSeconds * 1e3)
            << "sharded deadline-mode p99 blew the deadline at "
            << qps << " offered qps";
        GoldenRow row;
        row["goodput_qps"] = r.overload.goodputQps;
        row["shed_rate"] = r.overload.shedRate();
        row["degrade_rate"] = r.overload.degradeRate();
        row["p99_ms"] = r.p99Ms();
        measured["offered_" + std::to_string(static_cast<int>(qps))] =
            row;
    }
    checkGolden("overload_goodput.json", measured);
}

TEST(Golden, ChaosAvailabilityCurve)
{
    // The availability ladder under heavy chaos — pins the whole
    // fault path: the seeded schedule, crash kills, failover retries,
    // replica re-routing, and hedged twins. Single copy must lose a
    // visible slice of the trace; replication plus failover must hold
    // the four-nines neighborhood on the very same fault schedule.
    LoadSpec load;
    load.arrivalSeed = 0xc4a05;
    load.sizeSeed = 0xc4a06;
    TraceTemplate tmpl(load);
    tmpl.ensure(4000);
    const QueryTrace trace = tmpl.materialize(1000.0, 4000);

    struct Posture
    {
        const char* name;
        uint32_t minReplicas;
        uint32_t faultTolerance;
        uint32_t maxFailovers;
        double hedgeDelaySeconds;
    };
    const Posture postures[] = {
        {"single_copy", 1, 0, 0, 0.0},
        {"replicated", 2, 2, 4, 0.0},
        {"replicated_hedge", 2, 2, 4, 0.02},
    };

    GoldenMap measured;
    for (const Posture& p : postures) {
        PlacementSpec placement_spec;
        placement_spec.minReplicas = p.minReplicas;
        // Two full copies of RMC2 need headroom over 2 GB x 8.
        ClusterConfig cluster = bench::rmc2ShardedTier(
            8, p.minReplicas > 1 ? 3'000'000'000ULL : 2'000'000'000ULL,
            placement_spec);
        ASSERT_TRUE(cluster.sharding->placement.feasible());
        ASSERT_TRUE(cluster.sharding->placement.replicatedFor(p.minReplicas));

        cluster.faults.crashesPerHour = 240.0;
        cluster.faults.grayPerHour = 120.0;
        cluster.faults.repairSeconds = 1.5;
        cluster.faults.faultTolerance = p.faultTolerance;
        cluster.faults.maxFailovers = p.maxFailovers;
        cluster.faults.failoverDelaySeconds = 0.25;
        cluster.hedge.delaySeconds = p.hedgeDelaySeconds;

        const ClusterResult r = ClusterSimulator(cluster).run(
            trace, RoutingSpec{RoutingKind::ShardAware});
        EXPECT_EQ(trace.size(), r.numCompleted + r.faults.lost);
        const double availability =
            static_cast<double>(r.numCompleted) /
            static_cast<double>(trace.size());
        GoldenRow row;
        row["availability"] = availability;
        row["lost"] = static_cast<double>(r.faults.lost);
        row["failovers"] = static_cast<double>(r.faults.failovers);
        row["hedged"] = static_cast<double>(r.faults.hedged);
        row["p99_ms"] = r.p99Ms();
        measured[p.name] = row;
    }
    // The acceptance floor, independent of the pinned numbers: chaos
    // this heavy must visibly wound a single-copy tier, and the
    // hardened postures must shrug it off.
    EXPECT_LE(measured["single_copy"]["availability"], 0.95);
    EXPECT_GE(measured["replicated"]["availability"], 0.99);
    EXPECT_GE(measured["replicated_hedge"]["availability"], 0.99);
    checkGolden("chaos_availability.json", measured);
}

TEST(Golden, ColocationInterferencePaths)
{
    // The bench/colocation_sweep interference scenario: a fixed tier
    // serving the embedding-bound RMC2 next to the compute-bound
    // Wide&Deep 50/50, against the same tier serving the identical
    // WnD query population alone. Pins the per-model tails of the
    // colocated run AND the dedicated baseline, so both the mixed
    // batch scheduler's cross-model interference and the mixed trace
    // merge are regression-locked.
    const std::vector<ModelMixEntry> pair = {
        makeMixEntry(ModelId::DlrmRmc2, 0.5),
        makeMixEntry(ModelId::WideAndDeep, 0.5),
    };
    std::vector<ModelMixEntry> tuned = pair;
    for (ModelMixEntry& entry : tuned)
        entry.policy.perRequestBatch = 256;

    LoadSpec load;
    load.arrivalSeed = 0xc07a0;
    load.sizeSeed = 0xc07a1;
    MixedTraceTemplate mixed(load, mixFractions(tuned));
    mixed.ensure(8000);
    const QueryTrace colocated_trace = mixed.materialize(2600.0, 8000);

    ClusterConfig colocated_tier;
    for (size_t m = 0; m < 4; m++)
        colocated_tier.machines.push_back(
            colocatedMachine(tuned, CpuPlatform::skylake()));
    colocated_tier.modelMix = tuned;
    const RoutingSpec routing{RoutingKind::PowerOfTwoChoices};
    const ClusterResult colocated =
        ClusterSimulator(colocated_tier).run(colocated_trace, routing);

    // Dedicated baseline: the colocated trace's own WnD substream —
    // same queries, same arrival instants — remapped to model 0 on a
    // WnD-only tier of the same size.
    QueryTrace wnd_trace;
    for (const Query& q : colocated_trace) {
        if (q.model != 1)
            continue;
        Query alone = q;
        alone.model = 0;
        wnd_trace.push_back(alone);
    }
    ClusterConfig wnd_tier;
    ModelMixEntry wnd_alone = tuned[1];
    wnd_alone.trafficFraction = 1.0;
    for (size_t m = 0; m < 4; m++)
        wnd_tier.machines.push_back(
            colocatedMachine({wnd_alone}, CpuPlatform::skylake()));
    const ClusterResult alone_run =
        ClusterSimulator(wnd_tier).run(wnd_trace, routing);

    ASSERT_EQ(colocated.perModel.size(), 2u);
    GoldenMap measured;
    measured["colocated_rmc2"] =
        percentilesOf(colocated.perModel[0].latencySeconds);
    measured["colocated_wnd"] =
        percentilesOf(colocated.perModel[1].latencySeconds);
    measured["wnd_alone"] = percentilesOf(alone_run.fleetLatencySeconds);

    // The interference regression itself: the co-tenant must cost
    // WnD tail latency, never improve it — RMC2's long embedding
    // gathers sit ahead of WnD's short dense requests in the shared
    // core pool even though batches never mix models.
    EXPECT_GE(measured["colocated_wnd"]["p99_ms"],
              measured["wnd_alone"]["p99_ms"])
        << "colocation improved WnD's p99 — interference not biting";
    checkGolden("colocation_sweep.json", measured);
}

} // namespace
} // namespace deeprecsys
