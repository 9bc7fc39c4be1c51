/**
 * @file
 * Self-measuring performance benchmark of the simulation runtime —
 * the simulator simulating how fast it simulates.
 *
 * Scenarios:
 *
 *  - `setup_colocated128`: building the machine configs of a
 *    128-machine colocated RMC2/WnD/NCF tier (16 with `--smoke`) — the
 *    set-up layer. It runs first, so its first build is the process's
 *    cold one (every model profile derived); the warm figure is the
 *    best of 3 builds after it.
 *  - `fig11_single_machine`: one ServingSimulator run over a long
 *    production trace (the fig11 operating point) — the engine
 *    hot-path metric: simulated events/second on one thread.
 *  - `cluster16_sharded`: a 16-machine sharded TwoStage cluster run
 *    with shard-aware routing — the cluster driver hot path. It also
 *    reports the parts the driver created, the most queries (each
 *    with its parts) its book held at once (the driver's memory
 *    high-water mark), the heap bytes of the flat per-query
 *    part-machine book the result keeps, and the heap bytes of the
 *    per-machine latency books. Both byte counts are gated, or
 *    the run exits non-zero: the part-machine book holds at most 2 B
 *    per machine id, 4 B per row offset and one 64 KB chunk, and the
 *    latency books exactly 8 B per measured query.
 *  - `cluster16_obs_off` / `cluster16_obs_on`: the same workload with
 *    the observability layer explicitly detached and fully attached.
 *    The baseline already runs with a null observer, so the detached
 *    run is the same program: its gate (<1% over the baseline, +5 ms
 *    timer-noise floor) bounds the host noise between two identical
 *    runs. It does not measure what the disabled path costs; the
 *    null-observer pointer tests and the engine's first-service stamp
 *    run on both sides. The two are timed in interleaved pairs (A B,
 *    B A, ...) in the same process and their median walls compared.
 *    Both observed runs must reproduce the baseline's statistics
 *    exactly — observing a run must never change it.
 *  - `find_max_qps`, `cluster_max_qps`, `plan_capacity`: one search
 *    each. A search is a serial walk on its calling thread, so each is
 *    timed once, with no parallel column.
 *  - `grid_sweep`, `tune_sweep`: the parallel layer — independent runs
 *    mapped through `sweepMap`. `grid_sweep` is a fig09-style batch
 *    grid of single simulations; `tune_sweep` is fig11's shape, the
 *    DeepRecSched baseline, CPU and GPU tunings of every (model, tier)
 *    cell. Each runs at 1 thread and at N threads (in-process pool
 *    resize) with results checked bit-identical and the wall-clock
 *    speedup reported.
 *  - `retime_diurnal_day`: fleet_day's diurnal day (144,000 queries,
 *    13,500 with `--smoke`; RMC2/WnD/NCF at 40/40/20, a 2x swing over
 *    a 6 s day) re-timed by TraceTemplate::materializeDiurnal, whose
 *    chunks run on the pool. Timed at 1 thread and at N threads, with
 *    the arrivals checked bit-identical.
 *
 * The combined sweep speedup is over every scenario with a parallel
 * column.
 *
 * Usage: perf_engine [--smoke] [out.json]
 * Output: a table to stdout; the optional path also writes it as a
 * JSON array, one object per scenario (CI archives it as
 * BENCH_sim_perf.json). `--smoke` shrinks every scenario for a
 * seconds-long CI run. The parallel runs take DRS_THREADS threads
 * (default: the hardware's).
 *
 * Events metric: CPU request completions + query completions (+ parts
 * and joins for the cluster), i.e. heap pops — the unit of work of a
 * discrete-event simulator.
 *
 * Host-measured lines: see its entry in tools/outputs.json.
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "cluster/capacity_planner.hh"
#include "obs/observer.hh"
#include "cluster/cluster_qps_search.hh"
#include "cluster/cluster_sim.hh"
#include "cluster/model_mix.hh"
#include "loadgen/query_stream.hh"
#include "sim/qps_search.hh"

using namespace deeprecsys;
using namespace deeprecsys::bench;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point start, Clock::time_point stop)
{
    return std::chrono::duration<double>(stop - start).count();
}

/** Best-of-N wall clock for a callable (N small: sims are seconds). */
template <typename Fn>
double
bestWall(size_t repeats, Fn&& fn)
{
    double best = -1.0;
    for (size_t r = 0; r < repeats; r++) {
        const auto start = Clock::now();
        fn();
        const double w = seconds(start, Clock::now());
        if (best < 0.0 || w < best)
            best = w;
    }
    return best;
}

/**
 * Median wall clocks of two callables, each run @p repeats times in
 * interleaved pairs (A B, B A, A B, ...): a drift in host speed lands
 * on both alike, where two blocks run one after the other would each
 * time a different host.
 */
template <typename FnA, typename FnB>
std::pair<double, double>
interleavedMedianWalls(size_t repeats, FnA&& a, FnB&& b)
{
    SampleStats walls_a;
    SampleStats walls_b;
    auto time = [](auto& fn, SampleStats& walls) {
        const auto start = Clock::now();
        fn();
        walls.add(seconds(start, Clock::now()));
    };
    for (size_t r = 0; r < repeats; r++) {
        if (r % 2 == 0) {
            time(a, walls_a);
            time(b, walls_b);
        } else {
            time(b, walls_b);
            time(a, walls_a);
        }
    }
    return {walls_a.p50(), walls_b.p50()};
}

struct ScenarioReport
{
    std::string name;
    double wallSerial = 0;     ///< seconds at 1 thread
    double wallParallel = 0;   ///< seconds at N threads (0: n/a)
    double events = 0;         ///< simulated events (serial run)
    double queries = 0;        ///< simulated queries (serial run)
    uint64_t parts = 0;        ///< driver parts created (cluster only)
    uint64_t peakHeldQueries = 0; ///< query records held at once
    bool identical = true;     ///< parallel result bitwise == serial

    double
    speedup() const
    {
        return wallParallel > 0.0 ? wallSerial / wallParallel : 1.0;
    }
};

/** The machine configs of an @p n-machine colocated tier. */
std::vector<SimConfig>
colocatedTier(size_t n)
{
    std::vector<ModelMixEntry> mix;
    for (auto [id, share] : {std::pair{ModelId::DlrmRmc2, 0.4},
                             std::pair{ModelId::WideAndDeep, 0.4},
                             std::pair{ModelId::Ncf, 0.2}}) {
        ModelMixEntry entry = makeMixEntry(id, share);
        entry.policy.perRequestBatch = 256;
        mix.push_back(entry);
    }
    std::vector<SimConfig> machines;
    for (size_t m = 0; m < n; m++)
        machines.push_back(colocatedMachine(mix, CpuPlatform::skylake(),
                                            1'500'000'000ULL));
    return machines;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchArgs args = parseBenchArgs(argc, argv, SmokeFlag);
    const bool smoke = args.smoke;
    const size_t threads = ThreadPool::defaultThreadCount();
    const size_t repeats = smoke ? 1 : 3;

    printBanner(std::cout,
                "perf_engine: simulation-runtime benchmark (" +
                    std::to_string(threads) + " threads" +
                    (smoke ? ", smoke" : "") + ")");
    std::vector<ScenarioReport> reports;

    // ---- set-up: colocated machine configs. First, so that the cold
    // build is the first to ask for each model's profile.
    {
        const size_t machines = smoke ? 16 : 128;
        auto build = [&] { colocatedTier(machines); };
        const double cold = bestWall(1, build);
        const double warm = bestWall(3, build);
        std::cout << "setup_colocated128: " << machines
                  << " machines, cold " << TextTable::num(cold * 1e3, 2)
                  << " ms, warm best-of-3 " << TextTable::num(warm * 1e6, 1)
                  << " us\n";
    }

    // ---- engine hot path: fig11 single-machine run (serial only;
    // one simulation is a serial dependence chain by design).
    {
        ScenarioReport report;
        report.name = "fig11_single_machine";
        const SimConfig cfg = bench::cpuMachine(256);
        LoadSpec load;
        load.qps = 600.0;
        QueryStream stream(load);
        const QueryTrace trace =
            stream.generate(smoke ? 20000 : 120000);
        ServingSimulator sim(cfg);
        SimResult result;
        report.wallSerial =
            bestWall(repeats, [&] { result = sim.run(trace); });
        report.events = static_cast<double>(result.numRequests) +
            static_cast<double>(result.numQueries);
        report.queries = static_cast<double>(result.numQueries);
        reports.push_back(report);
    }

    // ---- cluster driver hot path: 16-machine sharded fan-out/join,
    // plus the observability overhead gate. All three runs share one
    // process and trace; the gated pair alternates so the comparison
    // sees the same cache and frequency state.
    bool obs_gate_pass = true;
    bool book_gate_pass = true;
    bool latency_gate_pass = true;
    double obs_base_wall = 0.0;
    double obs_off_wall = 0.0;
    double obs_on_wall = 0.0;
    {
        const ClusterConfig cluster =
            bench::rmc2ShardedTier(16, 1'500'000'000ULL);
        LoadSpec load;
        load.qps = 4000.0;
        QueryStream stream(load);
        const QueryTrace trace =
            stream.generate(smoke ? 10000 : 60000);
        const RoutingSpec routing{RoutingKind::ShardAware};
        // Wall noise at 1 repeat is far above the 1% gate band; the
        // gated runs always take 3 repeats, smoke or not.
        const size_t gate_repeats = repeats < 3 ? 3 : repeats;

        auto cluster_events = [](const ClusterResult& r) {
            uint64_t requests = 0;
            uint64_t joins = 0;
            for (const MachineStats& m : r.perMachine) {
                requests += m.requestsDispatched;
                joins += m.joinPhases;
            }
            return static_cast<double>(requests + r.numParts + joins +
                                       r.numCompleted);
        };
        auto same_result = [](const ClusterResult& a,
                              const ClusterResult& b) {
            return a.numCompleted == b.numCompleted &&
                a.numParts == b.numParts && a.p99Ms() == b.p99Ms() &&
                a.meanFanout == b.meanFanout;
        };

        ClusterSimulator sim(cluster);
        ClusterResult base;
        ClusterResult off;
        const auto [base_wall, off_wall] = interleavedMedianWalls(
            gate_repeats, [&] { base = sim.run(trace, routing); },
            [&] {
                sim.setObserver(nullptr);   // the default disabled path
                off = sim.run(trace, routing);
            });
        {
            ScenarioReport report;
            report.name = "cluster16_sharded";
            report.wallSerial = base_wall;
            report.events = cluster_events(base);
            report.queries = static_cast<double>(base.numCompleted);
            report.parts = base.numParts;
            report.peakHeldQueries = base.peakHeldQueries;
            obs_base_wall = report.wallSerial;
            reports.push_back(report);

            // The flat book's layout: a 2-byte id per part and a
            // 4-byte offset per row (plus one), plus under one chunk.
            const uint64_t book_bytes = base.partMachinesOfQuery.bytes();
            const uint64_t bound = 2 * base.numParts +
                4 * (trace.size() + 1) + (uint64_t{64} << 10);
            book_gate_pass = book_bytes <= bound;
            std::cout << "part-machine book: " << book_bytes
                      << " B (gate <= " << bound << " B: "
                      << (book_gate_pass ? "PASS" : "FAIL") << ")\n";

            // Each measured latency sits in its leader's book, and the
            // books are held at content size: 8 B per measured query.
            uint64_t latency_bytes = 0;
            for (const MachineStats& m : base.perMachine)
                latency_bytes +=
                    m.latencySeconds.raw().capacity() * sizeof(double);
            latency_gate_pass = latency_bytes == 8 * base.numQueries;
            std::cout << "latency books: " << latency_bytes
                      << " B (gate == " << 8 * base.numQueries << " B: "
                      << (latency_gate_pass ? "PASS" : "FAIL") << ")\n";
        }

        {
            ScenarioReport report;
            report.name = "cluster16_obs_off";
            report.wallSerial = off_wall;
            report.events = cluster_events(off);
            report.queries = static_cast<double>(off.numCompleted);
            report.identical = same_result(base, off);
            obs_off_wall = report.wallSerial;
            reports.push_back(report);
        }

        {
            ScenarioReport report;
            report.name = "cluster16_obs_on";
            ClusterResult on;
            report.wallSerial = bestWall(gate_repeats, [&] {
                // One observer per run: a fresh one each repeat.
                obs::RunObserver observer(obs::ObsConfig::full(0.001),
                                          cluster.machines.size());
                sim.setObserver(&observer);
                on = sim.run(trace, routing);
                sim.setObserver(nullptr);
            });
            report.events = cluster_events(on);
            report.queries = static_cast<double>(on.numCompleted);
            report.identical = same_result(base, on);
            obs_on_wall = report.wallSerial;
            reports.push_back(report);
        }

        obs_gate_pass = obs_off_wall <= obs_base_wall * 1.01 + 0.005;
        std::cout << "obs overhead vs cluster16_sharded: off "
                  << TextTable::num(
                         100.0 * (obs_off_wall / obs_base_wall - 1.0), 2)
                  << "% (gate <1% +5ms: "
                  << (obs_gate_pass ? "PASS" : "FAIL") << "), on "
                  << TextTable::num(
                         100.0 * (obs_on_wall / obs_base_wall - 1.0), 2)
                  << "%\n";
    }

    // ---- searches: each one is a serial walk, timed once.
    {
        ScenarioReport report;
        report.name = "find_max_qps";
        QpsSearchSpec spec;
        spec.slaMs = 100.0;
        spec.numQueries = smoke ? 1200 : 4000;
        QpsSearchResult serial;
        report.wallSerial = bestWall(
            repeats,
            [&] { serial = findMaxQps(bench::cpuMachine(256), spec); });
        report.queries = static_cast<double>(serial.evaluations) *
            static_cast<double>(spec.numQueries);
        report.events = report.queries +
            static_cast<double>(serial.evaluations) *
                static_cast<double>(serial.atMax.numRequests);
        reports.push_back(report);
        std::cout << "find_max_qps: maxQps=" << serial.maxQps
                  << " evaluations=" << serial.evaluations << "\n";
    }

    {
        ScenarioReport report;
        report.name = "cluster_max_qps";
        ClusterQpsSpec spec;
        spec.slaMs = 100.0;
        spec.numQueries = smoke ? 1600 : 4800;
        spec.routing.kind = RoutingKind::JoinShortestQueue;
        ClusterConfig cluster;
        for (size_t m = 0; m < 8; m++)
            cluster.machines.push_back(bench::cpuMachine(256));
        ClusterQpsResult serial;
        report.wallSerial = bestWall(
            repeats, [&] { serial = findClusterMaxQps(cluster, spec); });
        report.queries = static_cast<double>(serial.evaluations) *
            static_cast<double>(spec.numQueries);
        reports.push_back(report);
        std::cout << "cluster_max_qps: maxQps=" << serial.maxQps
                  << " evaluations=" << serial.evaluations << "\n";
    }

    {
        ScenarioReport report;
        report.name = "plan_capacity";
        CapacityPlanSpec spec;
        spec.unitMachines = {bench::cpuMachine(256)};
        spec.targetQps = smoke ? 4000.0 : 8000.0;
        spec.slaMs = 100.0;
        spec.queriesPerMachine = smoke ? 200 : 300;
        spec.minQueries = smoke ? 1000 : 2000;
        spec.maxUnits = 64;
        CapacityPlan serial;
        report.wallSerial =
            bestWall(repeats, [&] { serial = planCapacity(spec); });
        reports.push_back(report);
        std::cout << "plan_capacity: units=" << serial.units
                  << " evaluations=" << serial.evaluations << "\n";
    }

    // ---- parallel layer: serial vs parallel wall, results must be
    // bit-identical (the determinism contract).
    auto timed_pair = [&](auto fn, auto& serial_out, auto& parallel_out,
                          ScenarioReport& report) {
        ThreadPool::setSharedThreads(1);
        report.wallSerial = bestWall(repeats, [&] { serial_out = fn(); });
        ThreadPool::setSharedThreads(threads);
        report.wallParallel =
            bestWall(repeats, [&] { parallel_out = fn(); });
        ThreadPool::setSharedThreads(1);
    };

    {
        ScenarioReport report;
        report.name = "grid_sweep";
        // A fig09-style batch grid: independent simulations, the
        // embarrassingly parallel bench shape.
        std::vector<size_t> batches;
        for (size_t b = 1; b <= 2048; b *= 2)
            batches.push_back(b);
        const size_t queries = smoke ? 1000 : 3000;
        auto sweep = [&] {
            return sweepMap(batches, [&](size_t batch) {
                LoadSpec load;
                return evaluateAtQps(bench::cpuMachine(batch), load, 600.0,
                                     queries)
                    .p95Ms();
            });
        };
        std::vector<double> serial, parallel;
        timed_pair(sweep, serial, parallel, report);
        report.identical = serial == parallel;
        report.queries =
            static_cast<double>(batches.size() * queries);
        reports.push_back(report);
    }

    {
        ScenarioReport report;
        report.name = "tune_sweep";
        // fig11's shape: each (model, tier) cell tunes the baseline,
        // DeepRecSched-CPU and DeepRecSched-GPU, cells in parallel.
        const std::vector<ModelId> models = smoke
            ? std::vector<ModelId>{ModelId::Ncf, ModelId::DlrmRmc1}
            : std::vector<ModelId>{ModelId::Ncf, ModelId::WideAndDeep,
                                   ModelId::DlrmRmc1, ModelId::DlrmRmc3};
        std::vector<std::pair<ModelId, SlaTier>> cells;
        for (ModelId id : models)
            for (SlaTier tier : allTiers())
                cells.push_back({id, tier});
        const size_t queries = smoke ? 200 : 400;
        auto sweep = [&] {
            return sweepMap(cells, [&](const std::pair<ModelId, SlaTier>&
                                           cell) {
                InfraConfig cfg = defaultInfra(cell.first);
                cfg.numQueries = queries;
                const DeepRecInfra cpu_infra(cfg);
                cfg.attachGpu = true;
                const DeepRecInfra gpu_infra(cfg);
                const double sla = cpu_infra.slaMs(cell.second);
                std::vector<double> out;
                for (const TuningResult& t :
                     {DeepRecSched::baseline(cpu_infra, sla),
                      DeepRecSched::tuneCpu(cpu_infra, sla),
                      DeepRecSched::tuneGpu(gpu_infra, sla)}) {
                    out.push_back(t.qps());
                    out.push_back(
                        static_cast<double>(t.policy.perRequestBatch));
                    out.push_back(
                        static_cast<double>(t.policy.gpuQueryThreshold));
                    out.push_back(
                        static_cast<double>(t.atBest.evaluations));
                }
                return out;
            });
        };
        std::vector<std::vector<double>> serial, parallel;
        timed_pair(sweep, serial, parallel, report);
        report.identical = serial == parallel;
        reports.push_back(report);
        std::cout << "tune_sweep: " << cells.size() << " cells, "
                  << queries << " queries per evaluation\n";
    }

    {
        ScenarioReport report;
        report.name = "retime_diurnal_day";
        // fleet_day's day: RMC2/WnD/NCF at 40/40/20, each model's
        // share re-timed over a 2x swing across a 6 s day. The
        // re-timing runs in chunks on the pool, repaired serially.
        const size_t count = smoke ? 13500 : 144000;
        const std::vector<double> fractions = {0.4, 0.4, 0.2};
        const double mean_qps = static_cast<double>(count) / 6.0;
        const DiurnalProfile profile(2.0, 6.0);
        LoadSpec base;
        base.arrivalSeed = 30;
        base.sizeSeed = 31;
        MixedTraceTemplate mixed(base, fractions);
        mixed.ensure(count);
        auto retime = [&] {
            std::vector<QueryTrace> parts;
            for (uint32_t k = 0; k < fractions.size(); k++)
                parts.push_back(mixed.templateOf(k).materializeDiurnal(
                    fractions[k] * mean_qps, profile,
                    mixed.countOfModel(k, count)));
            return parts;
        };
        std::vector<QueryTrace> serial, parallel;
        timed_pair(retime, serial, parallel, report);
        auto same_arrivals = [](const QueryTrace& a, const QueryTrace& b) {
            return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                              [](const Query& x, const Query& y) {
                                  return x.arrivalSeconds ==
                                      y.arrivalSeconds;
                              });
        };
        report.identical =
            std::equal(serial.begin(), serial.end(), parallel.begin(),
                       parallel.end(), same_arrivals);
        report.queries = static_cast<double>(count);
        reports.push_back(report);
        std::cout << "retime_diurnal_day: " << count << " queries, "
                  << TextTable::num(report.wallSerial * 1e3, 2)
                  << " ms at 1 thread, "
                  << TextTable::num(report.wallParallel * 1e3, 2)
                  << " ms at " << threads << " threads\n";
    }

    // ---- report: the JSON's keys name no thread count, so a report
    // keeps its keys on any host.
    std::vector<std::string> headers = {
        "scenario", "wall 1t (s)", "wall Nt (s)", "speedup",
        "events/s (1t)", "queries/s (1t)", "parts", "peak held queries",
        "identical"};
    TextTable json(headers);
    headers[2] = "wall " + std::to_string(threads) + "t (s)";
    TextTable table(headers);
    double search_serial = 0.0;
    double search_parallel = 0.0;
    bool all_identical = true;
    for (const ScenarioReport& r : reports) {
        const bool parallel = r.wallParallel > 0.0;
        const bool timed = r.wallSerial > 0.0;
        std::vector<std::string> row = {
            r.name, TextTable::num(r.wallSerial, 4),
            parallel ? TextTable::num(r.wallParallel, 4) : "-",
            parallel ? TextTable::num(r.speedup(), 2) + "x" : "-",
            r.events > 0.0 && timed
                ? TextTable::num(r.events / r.wallSerial, 0)
                : "-",
            r.queries > 0.0 && timed
                ? TextTable::num(r.queries / r.wallSerial, 0)
                : "-",
            r.parts > 0 ? std::to_string(r.parts) : "-",
            r.parts > 0 ? std::to_string(r.peakHeldQueries) : "-",
            r.identical ? "yes" : "NO"};
        table.addRow(row);
        json.addRow(std::move(row));
        if (parallel) {
            search_serial += r.wallSerial;
            search_parallel += r.wallParallel;
        }
        all_identical = all_identical && r.identical;
    }
    table.print(std::cout);
    const double combined = search_parallel > 0.0
        ? search_serial / search_parallel
        : 1.0;
    std::cout << "\ncombined sweep speedup at "
              << threads << " threads: "
              << TextTable::num(combined, 2) << "x"
              << (all_identical
                      ? " (parallel results bitwise-identical)"
                      : " (MISMATCH: parallel results diverged!)")
              << "\n";

    writeTableJson(args.jsonPath, json);
    if (!obs_gate_pass)
        std::cerr << "obs disabled-path overhead gate FAILED\n";
    if (!book_gate_pass)
        std::cerr << "part-machine book content bound FAILED\n";
    if (!latency_gate_pass)
        std::cerr << "latency books content size FAILED\n";
    return (all_identical && obs_gate_pass && book_gate_pass &&
            latency_gate_pass)
        ? 0
        : 1;
}
