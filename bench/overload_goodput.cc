/**
 * @file
 * Overload serving: goodput vs offered load under admission control,
 * load shedding, and degraded answers — plus a flash-crowd run where
 * reactive autoscaling and shedding cover the warm-up gap together.
 *
 * Past its latency knee an open-loop tier queues unboundedly: every
 * query is eventually served, long after its answer stopped mattering,
 * so completion throughput looks healthy while goodput (completions
 * within the SLA deadline, quality-weighted) collapses to zero. The
 * sweep drives one fixed tier from 0.5x to 3x of its measured
 * capacity under four router policies — the open-loop baseline, a
 * queue-depth cap, deadline-aware admission (cluster/admission.hh),
 * and deadline admission plus degraded serving (fewer candidates
 * scored per query under pressure) — and charts goodput, shed rate,
 * and tail latency per cell. Past the knee the baseline's p99 grows
 * with the trace length (unbounded in the limit) while the shedding
 * policies hold a finite tail and nonzero goodput.
 *
 * The sharded section drives an 8-machine two-stage RMC2 tier through
 * the same deadline policies: the admission estimator prices the full
 * two-stage critical path (slowest-shard backlog, both service
 * phases, network hops, and the projected second-visit queue wait at
 * the leader), so deadline-mode p99 is asserted within 1.25x of the
 * deadline at every offered rate. A priorities-and-retries section
 * then runs the same tier in deep overload with three priority
 * classes and client retries, printing per-class goodput.
 *
 * The flash-crowd section runs the *elastic* tier (cluster/
 * autoscaler.hh) into a step-function rate spike from a cold start:
 * reactive scaling needs several control ticks plus the warm-up delay
 * to field capacity, and until it does the only choices are unbounded
 * queueing (baseline) or shedding/degrading through the gap. The
 * cluster driver asserts every run conservation-exact under the
 * three-way algebra offered == completed + droppedFinal + lost (with
 * zero fault books here, so dispatched == completed still holds).
 *
 * Usage: overload_goodput [--smoke] [out.json]
 * --smoke shrinks the grid and trace (CI); the optional path also
 * writes the sweep table as a JSON array (CI archives it as
 * BENCH_overload.json). Output is deterministic and bitwise identical
 * at every DRS_THREADS value.
 *
 * Host-measured lines: see its entry in tools/outputs.json.
 */

#include <string>

#include "bench/bench_common.hh"
#include "cluster/autoscaler.hh"
#include "cluster/cluster_qps_search.hh"
#include "cluster/shard_placement.hh"
#include "loadgen/query_stream.hh"

using namespace deeprecsys;

namespace {

/** One router policy under test. */
struct Mode
{
    const char* name;
    OverloadConfig overload;
};

/**
 * The four policies of the sweep. Every mode carries the same
 * deadline so goodput is measured identically; they differ only in
 * what the router refuses or shrinks.
 */
std::vector<Mode>
sweepModes(double deadline_s)
{
    OverloadConfig baseline;
    baseline.deadlineSeconds = deadline_s;   // accounting only

    OverloadConfig queue_cap = baseline;
    queue_cap.admission = AdmissionKind::QueueDepth;

    OverloadConfig deadline = baseline;
    deadline.admission = AdmissionKind::Deadline;

    OverloadConfig degrade = deadline;
    degrade.degrade = true;

    return {{"baseline", baseline},
            {"queue-cap", queue_cap},
            {"deadline", deadline},
            {"deadline+degrade", degrade}};
}

/**
 * A step-function flash crowd: the drawn population arrives at
 * @p base_qps, then from query @p base_count onward the gaps are
 * compressed to @p spike_qps — same queries, same draw order, the
 * spike hits as a rate discontinuity the way a real flash crowd does.
 */
QueryTrace
flashCrowdTrace(const TraceTemplate& tmpl, double base_qps,
                double spike_qps, size_t base_count, size_t total)
{
    QueryTrace trace = tmpl.materialize(base_qps, total);
    const double t_spike = trace[base_count].arrivalSeconds;
    const double compress = base_qps / spike_qps;
    for (size_t i = base_count; i < total; i++) {
        trace[i].arrivalSeconds =
            t_spike + (trace[i].arrivalSeconds - t_spike) * compress;
    }
    return trace;
}

} // namespace

int
main(int argc, char** argv)
{
    const bench::BenchArgs args =
        bench::parseBenchArgs(argc, argv, bench::SmokeFlag);
    const bool smoke = args.smoke;

    const double sla_ms = 100.0;
    const double deadline_s = sla_ms / 1e3;
    const size_t tier_machines = 4;
    const size_t queries = smoke ? 2500 : 12000;
    const std::vector<double> multipliers =
        smoke ? std::vector<double>{0.5, 2.0}
              : std::vector<double>{0.5, 0.75, 1.0, 1.5, 2.0, 3.0};

    printBanner(std::cout,
                "Goodput under overload (DLRM-RMC1 x " +
                    TextTable::num(static_cast<int64_t>(tier_machines)) +
                    ", deadline " + TextTable::num(sla_ms, 0) + " ms)");

    // The tier under test and its measured capacity: the knee every
    // multiplier is anchored to.
    ClusterConfig cluster;
    for (size_t m = 0; m < tier_machines; m++)
        cluster.machines.push_back(bench::cpuMachine(256));
    ClusterQpsSpec qps_spec;
    qps_spec.slaMs = sla_ms;
    qps_spec.routing.kind = RoutingKind::PowerOfTwoChoices;
    const ClusterQpsResult capacity =
        findClusterMaxQps(cluster, qps_spec);
    drs_assert(capacity.maxQps > 0.0, "tier cannot meet the SLA at all");
    std::cout << "measured capacity: "
              << TextTable::num(capacity.maxQps, 0)
              << " QPS under p99 <= " << TextTable::num(sla_ms, 0)
              << " ms (" << TextTable::num(static_cast<int64_t>(
                     capacity.evaluations))
              << " bisection evaluations)\n\n";

    const std::vector<Mode> modes = sweepModes(deadline_s);

    struct Cell
    {
        double multiplier;
        size_t mode;
    };
    std::vector<Cell> grid;
    for (double multiplier : multipliers) {
        for (size_t mode = 0; mode < modes.size(); mode++)
            grid.push_back({multiplier, mode});
    }

    const auto rows = bench::sweepMap(grid, [&](const Cell& cell) {
        const Mode& mode = modes[cell.mode];
        const double qps = cell.multiplier * capacity.maxQps;

        // One drawn population per cell, re-timed to the cell's rate:
        // higher multipliers offer the same queries faster.
        TraceTemplate tmpl(LoadSpec{});
        tmpl.ensure(queries);
        const QueryTrace trace = tmpl.materialize(qps, queries);

        ClusterConfig cfg = cluster;
        cfg.overload = mode.overload;
        const ClusterSimulator sim(cfg);
        RoutingSpec routing;
        routing.kind = RoutingKind::PowerOfTwoChoices;
        const ClusterResult r = sim.run(trace, routing);

        // The headline acceptance check: with deadline shedding on,
        // the tier keeps answering past its knee.
        if (cell.multiplier >= 2.0 &&
            mode.overload.admission == AdmissionKind::Deadline) {
            drs_assert(r.overload.goodputQps > 0.0,
                       "shedding tier lost all goodput past the knee");
            drs_assert(r.overload.dropped > 0,
                       "no shedding at 2x capacity");
        }

        const double within_sla = r.overload.measuredCompleted > 0
            ? 100.0 *
                static_cast<double>(r.overload.completedWithinDeadline) /
                static_cast<double>(r.overload.measuredCompleted)
            : 0.0;
        return std::vector<std::string>{
            TextTable::num(cell.multiplier, 2),
            TextTable::num(qps, 0),
            mode.name,
            TextTable::num(r.overload.goodputQps, 0),
            TextTable::num(r.achievedQps, 0),
            TextTable::num(100.0 * r.overload.shedRate(), 1),
            TextTable::num(100.0 * r.overload.degradeRate(), 1),
            TextTable::num(within_sla, 1),
            TextTable::num(r.p99Ms(), 1),
        };
    });

    TextTable table({"load x", "offered qps", "mode", "goodput qps",
                     "achieved qps", "shed %", "degraded %",
                     "within-SLA %", "p99 (ms)"});
    for (const std::vector<std::string>& row : rows)
        table.addRow(row);
    table.print(std::cout);

    std::cout
        << "\nBelow the knee every mode is the same tier: nothing is"
           " shed, nothing is degraded, goodput tracks the offered"
           " rate. Past the knee the baseline keeps accepting work it"
           " cannot finish in time - its p99 grows with the trace"
           " length (unbounded queueing in the limit) and its goodput"
           " collapses even though achieved QPS still looks busy. The"
           " queue-depth cap bounds the damage but is deadline-blind;"
           " deadline admission sheds exactly the queries that are"
           " dead on arrival, holding a finite tail and nonzero"
           " goodput at every overload. Adding degraded serving"
           " shrinks candidate slates before dropping, converting part"
           " of the shed rate into discounted-quality answers - the"
           " goodput column weighs them by (served/original)^q.\n";

    // --------------------------------------- sharded two-stage tier
    // The two-stage join prices a second queue visit at the leader;
    // an estimator that ignores it settles the admitted tail 1.5-2x
    // over the deadline while claiming to enforce it. This section is
    // the tripwire: a sharded RMC2 tier under deadline admission must
    // hold p99 within 1.25x of the deadline at every offered rate
    // (asserted), because the estimator now prices slowest-shard
    // backlog + both service phases + all hops + the projected
    // join-time wait.
    printBanner(std::cout,
                "Sharded two-stage tier (DLRM-RMC2 x 8, deadline " +
                    TextTable::num(sla_ms, 0) + " ms)");

    const ClusterConfig sharded =
        bench::rmc2ShardedTier(8, 2'000'000'000ULL);
    drs_assert(sharded.sharding->placement.feasible(),
               "sharded placement infeasible");

    const std::vector<double> sharded_rates =
        smoke ? std::vector<double>{3500.0, 5000.0}
              : std::vector<double>{1500.0, 2500.0, 3500.0, 5000.0};
    struct ShardCell
    {
        double qps;
        size_t mode;
    };
    std::vector<ShardCell> sharded_grid;
    for (double qps : sharded_rates) {
        for (size_t mode = 0; mode < modes.size(); mode++)
            sharded_grid.push_back({qps, mode});
    }

    const auto sharded_rows = bench::sweepMap(
        sharded_grid, [&](const ShardCell& cell) {
            const Mode& mode = modes[cell.mode];
            LoadSpec load;
            load.arrivalSeed = 0x600d;
            load.sizeSeed = 0x600e;
            TraceTemplate tmpl(load);
            tmpl.ensure(queries);
            const QueryTrace trace = tmpl.materialize(cell.qps, queries);

            ClusterConfig cfg = sharded;
            cfg.overload = mode.overload;
            RoutingSpec routing;
            routing.kind = RoutingKind::ShardAware;
            const ClusterResult r =
                ClusterSimulator(cfg).run(trace, routing);

            // The tentpole tripwire: deadline admission must actually
            // deliver the deadline on the two-stage critical path.
            if (mode.overload.admission == AdmissionKind::Deadline)
                drs_assert(r.p99Ms() <= 1.25 * sla_ms,
                           "sharded deadline-mode p99 blew the deadline");

            return std::vector<std::string>{
                TextTable::num(cell.qps, 0),
                mode.name,
                TextTable::num(r.overload.goodputQps, 0),
                TextTable::num(100.0 * r.overload.shedRate(), 1),
                TextTable::num(100.0 * r.overload.degradeRate(), 1),
                TextTable::num(r.p99Ms(), 1),
            };
        });

    TextTable sharded_table({"offered qps", "mode", "goodput qps",
                             "shed %", "degraded %", "p99 (ms)"});
    for (const std::vector<std::string>& row : sharded_rows)
        sharded_table.addRow(row);
    sharded_table.print(std::cout);

    std::cout
        << "\nA fanned-out query visits its leader twice: embedding"
           " shards first, then the dense join phase queued *behind*"
           " whatever arrived while the slowest shard finished. The"
           " estimator charges that second visit - slowest-shard"
           " backlog, both service phases, the pooled-embedding hop,"
           " and the projected join-time wait (the leader's current"
           " backlog plus dense phases already committed but not yet"
           " queued) - so the admitted tail settles at the deadline"
           " instead of 1.5-2x over it (asserted at 1.25x above).\n";

    // ------------------------------------- priorities and retries
    // The same sharded tier in deep overload, now with three priority
    // classes and client retries: the router sheds and degrades the
    // least important class first, refused clients re-present with
    // jittered backoff (honouring the router's Retry-After hint), and
    // a storm guard stops retrying into a hopeless queue.
    printBanner(std::cout,
                "Priority classes and client retries (same tier, "
                "deep overload)");

    {
        OverloadConfig overload;
        overload.admission = AdmissionKind::Deadline;
        overload.deadlineSeconds = deadline_s;
        overload.degrade = true;
        overload.priorityClasses = 3;
        overload.maxRetries = 2;

        LoadSpec load;
        load.arrivalSeed = 0x600d;
        load.sizeSeed = 0x600e;
        TraceTemplate tmpl(load);
        tmpl.ensure(queries);
        QueryTrace trace = tmpl.materialize(5000.0, queries);
        assignPriorityClasses(trace, overload.priorityClasses, 0xc1a55);

        ClusterConfig cfg = sharded;
        cfg.overload = overload;
        RoutingSpec routing;
        routing.kind = RoutingKind::ShardAware;
        const ClusterResult r = ClusterSimulator(cfg).run(trace, routing);

        TextTable cls_table({"class", "offered", "shed %", "degraded %",
                             "goodput qps"});
        for (size_t c = 0; c < r.overload.perClass.size(); c++) {
            const ClassOverloadStats& cs = r.overload.perClass[c];
            cls_table.addRow({
                TextTable::num(static_cast<int64_t>(c)),
                TextTable::num(static_cast<int64_t>(cs.offered)),
                TextTable::num(100.0 * cs.shedRate(), 2),
                TextTable::num(
                    cs.offered > 0
                        ? 100.0 * static_cast<double>(cs.degraded) /
                            static_cast<double>(cs.offered)
                        : 0.0,
                    1),
                TextTable::num(cs.goodputQps, 0),
            });
            // Margins must actually order the pain: a more important
            // class never sheds more than a less important one.
            if (c > 0)
                drs_assert(
                    r.overload.perClass[c - 1].shedRate() <=
                        cs.shedRate() + 0.02,
                    "priority ordering inverted in the shed schedule");
        }
        cls_table.print(std::cout);
        std::cout << "retries: "
                  << TextTable::num(
                         static_cast<int64_t>(r.overload.retried))
                  << " re-presented, "
                  << TextTable::num(
                         static_cast<int64_t>(r.overload.droppedFinal))
                  << " finally dropped of "
                  << TextTable::num(
                         static_cast<int64_t>(r.overload.dropped))
                  << " refusals\n";
        std::cout
            << "\nClass 0 (most important) keeps a full-rate deadline"
               " budget; classes 1 and 2 run on tightened budgets and"
               " earlier degrade pressure, so overload lands on the"
               " work that matters least. Refused clients retry after"
               " the router's projected-drain hint; the books close"
               " under offered == admitted + finally-dropped with"
               " every refusal either retried or final (asserted).\n";
    }

    // ------------------------------------------------- flash crowd
    // A cold elastic tier hit by a rate step: 2 machines serving a
    // calm base load, then the spike arrives and reactive scaling
    // needs ticks + warm-up to field the rest of the tier. Shedding
    // covers that gap; the baseline queues through it.
    const size_t flash_machines = 8;
    const double tier_qps =
        capacity.maxQps * static_cast<double>(flash_machines) /
        static_cast<double>(tier_machines);
    const double base_qps = 0.18 * tier_qps;   // calm on 2 machines
    const double spike_qps = 0.85 * tier_qps;  // needs nearly all 8
    const size_t flash_queries = smoke ? 4000 : 16000;
    const size_t base_count = flash_queries / 4;

    printBanner(std::cout,
                "Flash crowd: cold elastic tier, rate step to " +
                    TextTable::num(spike_qps, 0) + " QPS");

    TraceTemplate flash_tmpl{LoadSpec{}};
    flash_tmpl.ensure(flash_queries);
    const QueryTrace flash = flashCrowdTrace(
        flash_tmpl, base_qps, spike_qps, base_count, flash_queries);

    TextTable flash_table({"mode", "dropped", "degraded", "goodput qps",
                           "p99 (ms)", "SLA viol (s)", "serving",
                           "scale events"});
    for (const bool shed : {false, true}) {
        AutoscaleSpec spec;
        for (size_t m = 0; m < flash_machines; m++)
            spec.cluster.machines.push_back(bench::cpuMachine(256));
        spec.routing.kind = RoutingKind::PowerOfTwoChoices;
        spec.slaMs = sla_ms;
        spec.controlIntervalSeconds = 0.25;
        spec.warmupDelaySeconds = 0.5;
        spec.initialMachines = 2;
        spec.cluster.overload.deadlineSeconds = deadline_s;
        if (shed) {
            spec.cluster.overload.admission = AdmissionKind::Deadline;
            spec.cluster.overload.degrade = true;
        }

        ScalingPolicySpec policy;
        policy.kind = ScalingPolicyKind::Reactive;
        policy.minMachines = 2;

        const Autoscaler scaler(spec);
        const AutoscaleResult r = scaler.run(flash, policy);
        if (shed)
            drs_assert(r.overload.goodputQps > 0.0,
                       "flash-crowd shedding lost all goodput");

        flash_table.addRow({
            shed ? "shed+degrade" : "baseline",
            TextTable::num(static_cast<int64_t>(r.overload.dropped)),
            TextTable::num(static_cast<int64_t>(r.overload.degraded)),
            TextTable::num(r.overload.goodputQps, 0),
            TextTable::num(r.p99Ms(), 1),
            TextTable::num(r.slaViolationSeconds, 2),
            TextTable::num(
                static_cast<int64_t>(r.minServingMachines)) +
                ".." +
                TextTable::num(
                    static_cast<int64_t>(r.maxServingMachines)),
            TextTable::num(static_cast<int64_t>(r.scaleEvents.size())),
        });
    }
    flash_table.print(std::cout);

    std::cout
        << "\nBoth runs end with the same warm tier - reactive scaling"
           " reaches the spike's capacity either way (drops jump the"
           " target proportionally, so the shedding run scales up at"
           " least as fast). The difference is the warm-up gap: the"
           " baseline buries the backlog it accumulated while cold in"
           " its p99 and violation minutes, while the shedding run"
           " answers what it can answer in time, degrades what it can"
           " save, and drops the rest at the door. Offered =="
           " completed + droppedFinal + lost holds exactly in every"
           " run (asserted; the fault books are all zero here).\n";

    bench::writeTableJson(args.jsonPath, table);
    return 0;
}
