/**
 * @file
 * Availability under chaos: crash and gray fault injection over a
 * sharded two-stage tier, with and without replication, failover, and
 * hedged requests.
 *
 * The fault layer (cluster/fault_plan.hh) makes machine failure a
 * first-class event: seeded fail-stop crashes with timed repair and
 * gray straggler windows, both expanded into one deterministic
 * schedule before the run. This bench measures what that chaos costs
 * and what the recovery machinery buys back. The main grid drives the
 * same 8-machine DLRM-RMC2 tier through four chaos levels (calm,
 * gray-only, moderate, heavy) under three serving postures:
 *
 *   - single-copy: one replica per table, no failover budget — the
 *     naive tier every crash hurts. Queries on or routed through a
 *     dead machine are lost outright.
 *   - replicated: every table on >= 2 machines
 *     (PlacementSpec::minReplicas), shard-aware routing re-covers a
 *     query's tables from surviving replicas, and killed queries fail
 *     over with exponential backoff that outlives the repair window.
 *   - replicated+hedge: the same, plus tail-at-scale hedged requests
 *     — straggling fan-out parts are duplicated on another replica
 *     holding their tables and the first answer wins. The table is
 *     honest about what that buys on this tier: crash *saves* and
 *     availability insurance, not a smaller p99 — duplicates are
 *     real work on the one alternate replica, issued on a load
 *     signal that gray machines lie to.
 *
 * Availability is completed / offered (no admission control is
 * configured, so nothing is shed and the three-way conservation
 * algebra offered == completed + droppedFinal + lost pins every
 * query's fate; the cluster driver asserts it on every run). The headline acceptance, asserted
 * on the full grid: under heavy chaos the single-copy tier loses
 * >= 5% of its queries while replicated+hedge serves >= 99%.
 *
 * A correlated-failure section crashes two machines *together* (a
 * rack loss) — the case that defeats per-machine failure math — and
 * an observed run writes the full failure timeline (machine_down /
 * machine_up / failover / hedge / lost instants) as a Chrome trace
 * for the schema check in CI.
 *
 * Usage: chaos_availability [--smoke] [--trace F] [out.json]
 * --smoke shrinks the traces (CI); --trace writes the observed run's
 * trace-event JSON; the optional path writes the grid as a JSON array
 * (CI archives it as BENCH_chaos.json). Output is deterministic and
 * bitwise identical at every DRS_THREADS value.
 *
 * Host-measured lines: see its entry in tools/outputs.json.
 */

#include <array>
#include <cstring>
#include <fstream>
#include <string>

#include "bench/bench_common.hh"
#include "cluster/cluster_sim.hh"
#include "cluster/shard_placement.hh"
#include "loadgen/query_stream.hh"
#include "obs/observer.hh"

using namespace deeprecsys;

namespace {

/**
 * The tier under chaos: 8 DLRM-RMC2 machines behind shard-aware
 * routing with a two-stage join, every table placed on at least
 * @p min_replicas machines. Replication is paid for in memory: the
 * RMC2 tables total ~8.2 GB, so two copies need more than the
 * historical 2 GB per machine — the replicated tier runs 3 GB
 * machines, exactly the capacity-for-availability trade a real fleet
 * makes.
 */
ClusterConfig
shardedTier(uint32_t min_replicas)
{
    PlacementSpec placement_spec;
    placement_spec.minReplicas = min_replicas;
    const ClusterConfig cluster = bench::rmc2ShardedTier(
        8, min_replicas > 1 ? 3'000'000'000ULL : 2'000'000'000ULL,
        placement_spec);
    drs_assert(cluster.sharding->placement.feasible(),
               "chaos tier placement infeasible");
    drs_assert(cluster.sharding->placement.replicatedFor(min_replicas),
               "placement missed its replication floor");
    return cluster;
}

/** One chaos intensity of the grid. */
struct Level
{
    const char* name;
    double crashesPerHour;
    double grayPerHour;
};

/** One serving posture of the grid. */
struct Setup
{
    const char* name;
    uint32_t minReplicas;    ///< placement floor (1 = single copy)
    uint32_t faultTolerance; ///< FaultPlan replication validator
    uint32_t maxFailovers;   ///< kill-then-re-present budget
    double hedgeDelaySeconds;///< 0 = no hedging
};

/** One measured grid cell (kept numeric so asserts can run on it). */
struct CellResult
{
    size_t level = 0;
    size_t setup = 0;
    double availability = 0.0;
    std::vector<std::string> row;
};

} // namespace

int
main(int argc, char** argv)
{
    bool smoke = false;
    std::string json_path;
    std::string trace_path;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
            trace_path = argv[++i];
        else
            json_path = argv[i];
    }

    const double qps = 1000.0;
    const size_t queries = smoke ? 6000 : 30000;
    const double repair_s = 1.5;

    printBanner(std::cout,
                "Availability under chaos (DLRM-RMC2 x 8, sharded "
                "two-stage tier, " +
                    TextTable::num(qps, 0) + " QPS)");

    // Two placements of the same tables on the same machines: the
    // only difference the grid studies is how many copies exist.
    const ClusterConfig tier_single = shardedTier(1);
    const ClusterConfig tier_replicated = shardedTier(2);

    // Chaos levels in crashes (and gray windows) per machine-hour,
    // compressed onto a seconds-long trace: "heavy" takes each
    // machine down roughly once per quarter-minute for 1.5 s, a
    // downtime fraction no production fleet would tolerate — exactly
    // the regime where replication has to carry the tier.
    const std::vector<Level> levels = {
        {"calm", 0.0, 0.0},
        {"gray", 0.0, 120.0},
        {"moderate", 60.0, 30.0},
        {"heavy", 240.0, 120.0},
    };
    const std::vector<Setup> setups = {
        {"single-copy", 1, 0, 0, 0.0},
        {"replicated", 2, 2, 4, 0.0},
        // Hedge well past the healthy tail (calm p99 ~18 ms): a delay
        // down in the body of the latency distribution duplicates
        // most of the offered load and the extra work *causes* the
        // overload it was meant to dodge.
        {"replicated+hedge", 2, 2, 4, 0.05},
    };

    struct Cell
    {
        size_t level;
        size_t setup;
    };
    std::vector<Cell> grid;
    for (size_t l = 0; l < levels.size(); l++) {
        for (size_t s = 0; s < setups.size(); s++)
            grid.push_back({l, s});
    }

    const auto cells = bench::sweepMap(grid, [&](const Cell& cell) {
        const Level& level = levels[cell.level];
        const Setup& setup = setups[cell.setup];

        // One drawn population for every cell: the grid varies chaos
        // and recovery, never the traffic.
        LoadSpec load;
        load.arrivalSeed = 0xc4a05;
        load.sizeSeed = 0xc4a06;
        TraceTemplate tmpl(load);
        tmpl.ensure(queries);
        const QueryTrace trace = tmpl.materialize(qps, queries);

        ClusterConfig cfg = setup.minReplicas > 1 ? tier_replicated
                                                  : tier_single;
        cfg.faults.crashesPerHour = level.crashesPerHour;
        cfg.faults.grayPerHour = level.grayPerHour;
        cfg.faults.repairSeconds = repair_s;
        cfg.faults.faultTolerance = setup.faultTolerance;
        cfg.faults.maxFailovers = setup.maxFailovers;
        // The failover backoff ladder (0.25, 0.5, 1, 2 s) outlives
        // the repair window, so a query whose tables are briefly
        // uncovered wants to retry *after* the machine returns.
        cfg.faults.failoverDelaySeconds = 0.25;
        cfg.hedge.delaySeconds = setup.hedgeDelaySeconds;

        RoutingSpec routing;
        routing.kind = RoutingKind::ShardAware;
        const ClusterResult r = ClusterSimulator(cfg).run(trace, routing);

        CellResult out;
        out.level = cell.level;
        out.setup = cell.setup;
        out.availability = static_cast<double>(r.numCompleted) /
            static_cast<double>(trace.size());
        out.row = {
            level.name,
            setup.name,
            TextTable::num(100.0 * out.availability, 3),
            TextTable::num(static_cast<int64_t>(r.faults.crashes)),
            TextTable::num(static_cast<int64_t>(r.faults.lost)),
            TextTable::num(static_cast<int64_t>(r.faults.failovers)),
            TextTable::num(static_cast<int64_t>(r.faults.unroutable)),
            TextTable::num(static_cast<int64_t>(r.faults.hedged)),
            TextTable::num(static_cast<int64_t>(r.faults.hedgeWins +
                                                r.faults.hedgeSaves)),
            TextTable::num(r.p99Ms(), 1),
            TextTable::num(r.tailMs(99.9), 1),
        };
        return out;
    });

    TextTable table({"chaos", "posture", "avail %", "crashes", "lost",
                     "failovers", "unroutable", "hedged", "hedge won",
                     "p99 (ms)", "p99.9 (ms)"});
    for (const CellResult& cell : cells)
        table.addRow(cell.row);
    table.print(std::cout);

    // The acceptance claims, on the full-size grid (the smoke traces
    // are long enough for CI byte-diffs, not for stable loss rates).
    std::vector<std::array<double, 3>> avail(levels.size(),
                                             {0.0, 0.0, 0.0});
    for (const CellResult& cell : cells)
        avail[cell.level][cell.setup] = cell.availability;
    for (size_t l = 0; l < levels.size(); l++) {
        drs_assert(avail[l][1] + 1e-9 >= avail[l][0],
                   "replication lowered availability");
        drs_assert(avail[l][0] <= 1.0 && avail[l][2] <= 1.0,
                   "availability above 1 — conservation is broken");
    }
    const size_t heavy = levels.size() - 1;
    if (!smoke) {
        drs_assert(avail[heavy][0] <= 0.95,
                   "single-copy tier survived heavy chaos unharmed — "
                   "the chaos schedule is not biting");
        drs_assert(avail[heavy][2] >= 0.99,
                   "replicated+hedge tier lost more than 1% under "
                   "heavy chaos");
    }

    std::cout
        << "\nCalm rows are the fault-free tier: every posture serves"
           " 100% and the fault books are zero. Under chaos the"
           " single-copy tier has no answer — a crash destroys the"
           " only replica of its tables, so in-flight queries die and"
           " arrivals touching those tables are unroutable until"
           " repair; each is a permanent loss. Its *latency* columns"
           " still look clean: the queries a crash would have made"
           " slow are exactly the ones it lost, so the single-copy"
           " tail is survivor bias, not health. Replication gives the"
           " router somewhere else to go (unroutable only when every"
           " holder of a table is down at once) and the failover"
           " ladder re-presents killed queries until past the repair"
           " window, so losses collapse to zero - the cost shows up"
           " in p99, not availability. Hedging is availability"
           " insurance more than a tail cure here: a hedge whose"
           " partner dies in a crash saves the query a failover round"
           " trip (the hedge-won column), but the duplicates are real"
           " work, and because a gray machine lies to the load signal"
           " (slow service, short-looking queue), early-window hedges"
           " can land on the very straggler they were dodging - the"
           " gray row's p99 is the price of hedging on a signal that"
           " cannot see speed.\n";

    // --------------------------------------------- correlated failure
    // Independent-failure math says two simultaneous crashes are
    // vanishingly rare; racks and power domains disagree. Machines 0
    // and 1 crash *together* one second in — with tables replicated
    // across that pair, both copies vanish at once, the case naive
    // replica placement cannot survive without failover patience.
    printBanner(std::cout,
                "Correlated failure: machines 0 and 1 crash together");

    TextTable corr_table({"posture", "avail %", "lost", "failovers",
                          "unroutable", "p99 (ms)"});
    double corr_avail[2] = {};
    for (size_t s = 0; s < 2; s++) {
        const Setup& setup = setups[s];
        LoadSpec load;
        load.arrivalSeed = 0xc4a05;
        load.sizeSeed = 0xc4a06;
        TraceTemplate tmpl(load);
        tmpl.ensure(queries);
        const QueryTrace trace = tmpl.materialize(qps, queries);

        ClusterConfig cfg = setup.minReplicas > 1 ? tier_replicated
                                                  : tier_single;
        cfg.faults.correlatedCrashSeconds = 1.0;
        cfg.faults.correlatedCrashMachines = 2;
        cfg.faults.repairSeconds = repair_s;
        cfg.faults.faultTolerance = setup.faultTolerance;
        cfg.faults.maxFailovers = setup.maxFailovers;
        cfg.faults.failoverDelaySeconds = 0.25;

        RoutingSpec routing;
        routing.kind = RoutingKind::ShardAware;
        const ClusterResult r = ClusterSimulator(cfg).run(trace, routing);
        corr_avail[s] = static_cast<double>(r.numCompleted) /
            static_cast<double>(trace.size());
        corr_table.addRow({
            setup.name,
            TextTable::num(100.0 * corr_avail[s], 3),
            TextTable::num(static_cast<int64_t>(r.faults.lost)),
            TextTable::num(static_cast<int64_t>(r.faults.failovers)),
            TextTable::num(static_cast<int64_t>(r.faults.unroutable)),
            TextTable::num(r.p99Ms(), 1),
        });
    }
    corr_table.print(std::cout);
    drs_assert(corr_avail[0] < 1.0,
               "correlated crash cost the single-copy tier nothing");
    drs_assert(corr_avail[1] + 1e-9 >= corr_avail[0],
               "replication lowered availability under correlated "
               "failure");

    std::cout
        << "\nThe pair takes a quarter of the fleet's tables down in"
           " one instant. Single-copy loses every query that touches"
           " them for the whole repair window. The replicated tier"
           " can still lose *coverage* — a table whose two copies both"
           " live on the crashed pair is gone too — but its failover"
           " ladder keeps re-presenting those queries until the"
           " machines return, converting what would be losses into"
           " latency.\n";

    // ------------------------------------------------- observed run
    // One run with the full observer attached: heavy chaos, hedging
    // on, but a stingy failover budget on the *default* quick backoff
    // so some queries exhaust it — this run exists to emit every
    // failure-path instant (machine_down, machine_up, failover,
    // hedge, lost) into one Chrome trace for the schema check in CI,
    // and it asserts each counter is live so the check cannot rot.
    printBanner(std::cout,
                "Observed run: failure timeline for the trace schema");
    {
        const size_t obs_queries = 6000;
        LoadSpec load;
        load.arrivalSeed = 0xc4a05;
        load.sizeSeed = 0xc4a06;
        TraceTemplate tmpl(load);
        tmpl.ensure(obs_queries);
        const QueryTrace trace = tmpl.materialize(qps, obs_queries);

        ClusterConfig cfg = tier_replicated;
        cfg.faults.crashesPerHour = 600.0;
        cfg.faults.grayPerHour = 300.0;
        // The correlated pair-crash removes both copies of the tables
        // replicated across machines 0 and 1; with a single quick
        // failover the retry lands inside the repair window, so some
        // queries exhaust the budget and emit `lost`.
        cfg.faults.correlatedCrashSeconds = 1.0;
        cfg.faults.correlatedCrashMachines = 2;
        cfg.faults.repairSeconds = repair_s;
        cfg.faults.faultTolerance = 2;
        cfg.faults.maxFailovers = 1;
        cfg.hedge.delaySeconds = 0.01;

        obs::RunObserver observer(obs::ObsConfig::full(0.05),
                                  cfg.machines.size());
        ClusterSimulator sim(cfg);
        sim.setObserver(&observer);
        RoutingSpec routing;
        routing.kind = RoutingKind::ShardAware;
        const ClusterResult r = sim.run(trace, routing);
        drs_assert(r.faults.crashes > 0 && r.faults.recoveries > 0,
                   "observed run saw no crash/repair cycle");
        drs_assert(r.faults.failovers > 0,
                   "observed run emitted no failover instants");
        drs_assert(r.faults.lost > 0,
                   "observed run emitted no lost instants");
        drs_assert(r.faults.hedged > 0,
                   "observed run emitted no hedge instants");

        std::cout << "availability "
                  << TextTable::num(
                         100.0 * static_cast<double>(r.numCompleted) /
                             static_cast<double>(trace.size()),
                         3)
                  << " % | crashes "
                  << TextTable::num(
                         static_cast<int64_t>(r.faults.crashes))
                  << ", failovers "
                  << TextTable::num(
                         static_cast<int64_t>(r.faults.failovers))
                  << ", lost "
                  << TextTable::num(static_cast<int64_t>(r.faults.lost))
                  << ", hedged "
                  << TextTable::num(
                         static_cast<int64_t>(r.faults.hedged))
                  << " (" << TextTable::num(static_cast<int64_t>(
                                 r.faults.hedgeWins))
                  << " won, "
                  << TextTable::num(
                         static_cast<int64_t>(r.faults.hedgeSaves))
                  << " saved) | "
                  << TextTable::num(
                         static_cast<int64_t>(observer.numTraceEvents()))
                  << " trace events\n";

        if (!trace_path.empty() && observer.writeTraceFile(trace_path))
            std::cout << "wrote " << trace_path << "\n";
    }

    if (!json_path.empty()) {
        std::ofstream json(json_path);
        table.printJson(json);
        std::cout << "wrote " << json_path << "\n";
    }
    return 0;
}
