/**
 * @file
 * Online autoscaling over a diurnal day: machine-hours saved vs the
 * static peak plan, per scaling policy and peak-to-trough ratio.
 *
 * The capacity planner sizes a static tier for the peak rate; this
 * study asks what that sizing costs across a whole day. One
 * DiurnalProfile-modulated arrival stream (the same drawn query
 * population re-timed, TraceTemplate::materializeDiurnal) is served
 * by the elastic cluster tier under each scaling policy: the static
 * baseline (the plan, never resized), the reactive threshold policy
 * (feedback on measured utilization and windowed tail latency), and
 * the predictive profile-aware policy (feed-forward from the known
 * traffic schedule). Reported per cell: machine-hours burned vs the
 * static plan, minutes of control windows violating the SLA, and the
 * whole-day fleet tail — the add/remove-machines-online experiment
 * the ROADMAP's elastic-serving item calls for.
 *
 * The day is compressed (minutes of simulated wall time, the profile
 * period scaled to match) so the study runs in seconds; machine-hour
 * *fractions* are invariant to the compression. The static plan is
 * sized on **steady-state-length** evaluation traces
 * (queriesPerMachine raised well above the planner default): near
 * the SLA knee this tier's queueing takes seconds of sustained
 * traffic to reach equilibrium, and a short-trace plan looks
 * feasible while melting down over a real day. In steady state,
 * per-machine QPS-under-SLA is service-bound and nearly flat in the
 * tier size, so capacity scales ~linearly in machines and tracking
 * the diurnal swing can bank most of the provisioning gap.
 *
 * Usage: autoscale_diurnal [--smoke] [--trace F] [--metrics F]
 *                          [out.json]
 * --smoke shrinks the day and sweeps only the 2x ratio (CI); the
 * optional path also writes the table as a JSON array (CI archives it
 * as BENCH_autoscale.json). --trace / --metrics additionally run a
 * small sharded reactive day with a RunObserver attached (serially,
 * after the sweep) and write its Chrome trace-event JSON / windowed
 * metrics JSON, plus the latency-attribution stage split to stdout —
 * the sharded tier's fan-out populates the network and join-wait
 * spans and stages the unsharded study cells cannot show. Output —
 * files included — is deterministic and bitwise identical at every
 * DRS_THREADS value.
 *
 * Host-measured lines: see its entry in tools/outputs.json.
 */

#include <string>

#include "bench/bench_common.hh"
#include "cluster/autoscaler.hh"
#include "cluster/capacity_planner.hh"

using namespace deeprecsys;

int
main(int argc, char** argv)
{
    const bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, bench::SmokeFlag | bench::TraceFlag | bench::MetricsFlag);
    const bool smoke = args.smoke;

    const double sla_ms = 100.0;
    const double peak_qps = 40000.0;
    const double day_seconds = smoke ? 90.0 : 180.0;
    const std::vector<double> ratios =
        smoke ? std::vector<double>{2.0}
              : std::vector<double>{1.5, 2.0, 3.0};

    printBanner(std::cout,
                "Autoscaling over a diurnal day (DLRM-RMC1, p99 <= " +
                    TextTable::num(sla_ms, 0) + " ms, peak " +
                    TextTable::num(peak_qps, 0) + " QPS)");

    // Static plan at the peak rate: the machine-hours baseline.
    CapacityPlanSpec plan_spec;
    plan_spec.unitMachines = {bench::cpuMachine(256)};
    plan_spec.targetQps = peak_qps;
    plan_spec.slaMs = sla_ms;
    plan_spec.routing.kind = RoutingKind::PowerOfTwoChoices;
    // Steady-state evaluation traces (~10 s of traffic at the plan
    // point) — see the header comment.
    plan_spec.queriesPerMachine = 20000;
    const CapacityPlan plan = planCapacity(plan_spec);
    drs_assert(plan.feasible, "static peak plan infeasible");
    std::cout << "static peak plan: " << plan.machines
              << " machines (p99 " << TextTable::num(plan.tailMs(99), 1)
              << " ms at " << TextTable::num(peak_qps, 0)
              << " QPS); day compressed to "
              << TextTable::num(day_seconds, 0)
              << " s; static machine-hours over it: "
              << TextTable::num(plan.machineHoursOver(day_seconds), 3)
              << "\n\n";

    // The (ratio x policy) grid; each cell re-times one drawn
    // population per ratio and runs the elastic tier end-to-end.
    struct Cell
    {
        double ratio;
        ScalingPolicyKind policy;
    };
    std::vector<Cell> grid;
    for (double ratio : ratios) {
        for (ScalingPolicyKind policy : allScalingPolicyKinds())
            grid.push_back({ratio, policy});
    }

    const auto rows = bench::sweepMap(grid, [&](const Cell& cell) {
        const DiurnalProfile profile(cell.ratio, day_seconds);
        const double mean_qps =
            peak_qps / (1.0 + profile.swingAmplitude());

        LoadSpec load;
        load.qps = mean_qps;
        TraceTemplate tmpl(load);
        const size_t count =
            static_cast<size_t>(mean_qps * day_seconds);
        tmpl.ensure(count);
        const QueryTrace trace =
            tmpl.materializeDiurnal(mean_qps, profile, count);

        AutoscaleSpec spec;
        for (size_t m = 0; m < plan.machines; m++)
            spec.cluster.machines.push_back(bench::cpuMachine(256));
        spec.routing.kind = RoutingKind::PowerOfTwoChoices;
        spec.slaMs = sla_ms;
        // The control cadence is absolute, not day-relative: near
        // the SLA knee a queue grows at a physical rate (tens of ms
        // of p99 per second), so the window must stay short enough
        // for the latency guard to catch a bad shed inside the
        // 80..100 ms band before it crosses the SLA.
        spec.controlIntervalSeconds = 0.75;
        spec.warmupDelaySeconds = 0.5;
        spec.profile = profile;
        spec.meanQps = mean_qps;
        spec.machinesAtPeak = plan.machines;

        ScalingPolicySpec policy;
        policy.kind = cell.policy;
        policy.minMachines = 2;
        policy.downUtilization = 0.55;
        policy.upUtilization = 0.72;
        policy.downLatencyFraction = 0.35;

        const Autoscaler scaler(spec);
        const AutoscaleResult r = scaler.run(trace, policy);
        // Fault-free elastic runs conserve exactly: the three-way
        // algebra (offered == completed + droppedFinal + lost) the
        // driver checks, with zero drop and fault books, collapses to
        // this.
        drs_assert(r.numDispatched == r.numCompleted &&
                       r.numDispatched == trace.size(),
                   "elastic run lost queries");

        return std::vector<std::string>{
            TextTable::num(cell.ratio, 1),
            scalingPolicyName(cell.policy),
            TextTable::num(static_cast<int64_t>(plan.machines)),
            TextTable::num(
                static_cast<int64_t>(r.minServingMachines)) +
                ".." +
                TextTable::num(
                    static_cast<int64_t>(r.maxServingMachines)),
            TextTable::num(r.machineHours(), 3),
            TextTable::num(r.staticMachineHours(), 3),
            TextTable::num(100.0 * r.machineHoursSavedFraction(), 1),
            TextTable::num(r.slaViolationMinutes(), 2),
            TextTable::num(r.p99Ms(), 1),
            TextTable::num(static_cast<int64_t>(r.scaleEvents.size())),
        };
    });

    TextTable table({"peak/trough", "policy", "plan machines", "serving",
                     "machine-hours", "static mh", "saved %",
                     "SLA viol (min)", "day p99 (ms)", "scale events"});
    for (const std::vector<std::string>& row : rows)
        table.addRow(row);
    table.print(std::cout);

    std::cout
        << "\nAt the deepest swing the reactive policy may graze the"
           " SLA for a window or two around the trough: the tier's"
           " queueing knee is invisible to utilization and tail"
           " measurements until one machine too few, which is exactly"
           " where feed-forward knowledge of the schedule starts to"
           " pay - the predictive rows hold zero violations at every"
           " ratio.\n"
           "\nThe static row burns the plan's machine-hours regardless"
           " of the swing - that is the baseline. The reactive policy"
           " only sees measured utilization and windowed tail latency,"
           " yet tracks the swing and banks the trough; the predictive"
           " policy additionally knows the traffic schedule, so it"
           " pre-warms capacity ahead of the ramp instead of chasing"
           " it. Savings grow with the peak-to-trough ratio: the"
           " deeper the trough, the more of the day the static plan"
           " spends idle. SLA-violation minutes count control windows"
           " whose tail exceeded the SLA - the elastic policies must"
           " hold them at zero while shedding machines, or the saving"
           " is not real.\n";

    if (!args.tracePath.empty() || !args.metricsPath.empty()) {
        // Dedicated instrumented run: a small *sharded* reactive day
        // (DLRM-RMC2, shard-aware fan-out) rather than a replay of a
        // sweep cell — fan-out is what gives the trace its network
        // and join-wait spans and the stage split all four buckets;
        // the unsharded study cells would show queue/service only.
        // Runs serially after the sweep (the sweep's cells execute on
        // the shared pool), so the emitted bytes are identical at
        // every DRS_THREADS value.
        AutoscaleSpec spec;
        spec.cluster = bench::rmc2ShardedTier(8, 1'500'000'000ULL);
        spec.routing.kind = RoutingKind::ShardAware;
        spec.slaMs = sla_ms;
        spec.controlIntervalSeconds = 0.75;
        spec.warmupDelaySeconds = 0.5;

        const double obs_peak_qps = 2600.0;
        const DiurnalProfile obs_profile(2.0, day_seconds);
        const double obs_mean_qps =
            obs_peak_qps / (1.0 + obs_profile.swingAmplitude());
        spec.profile = obs_profile;
        spec.meanQps = obs_mean_qps;
        spec.machinesAtPeak = spec.cluster.machines.size();

        LoadSpec obs_load;
        obs_load.qps = obs_mean_qps;
        TraceTemplate obs_tmpl(obs_load);
        const size_t obs_count =
            static_cast<size_t>(obs_mean_qps * day_seconds);
        obs_tmpl.ensure(obs_count);
        const QueryTrace obs_trace = obs_tmpl.materializeDiurnal(
            obs_mean_qps, obs_profile, obs_count);

        ScalingPolicySpec obs_policy;
        obs_policy.kind = ScalingPolicyKind::Reactive;
        obs_policy.minMachines = 2;

        const obs::ObsConfig obs_cfg = obs::ObsConfig::full(0.005);
        obs::RunObserver observer(obs_cfg,
                                  spec.cluster.machines.size());
        Autoscaler scaler(spec);
        scaler.setObserver(&observer);
        const AutoscaleResult obs_r = scaler.run(obs_trace, obs_policy);
        drs_assert(obs_r.numDispatched == obs_r.numCompleted &&
                       obs_r.numDispatched == obs_trace.size(),
                   "observed elastic run lost queries");

        std::cout << "\nobserved sharded day: 8-machine RMC2 tier,"
                     " reactive at 2.0x peak/trough, peak "
                  << TextTable::num(obs_peak_qps, 0)
                  << " QPS, span sample rate "
                  << TextTable::num(obs_cfg.spanSampleRate, 3) << " ("
                  << TextTable::num(static_cast<int64_t>(
                         observer.numTraceEvents()))
                  << " trace events, "
                  << TextTable::num(static_cast<int64_t>(
                         observer.metrics().numSnapshots()))
                  << " metric snapshots)\n";
        bench::printStageSplit(std::cout, observer.stageSplit());

        bench::writeObserverFiles(args, observer);
    }

    bench::writeTableJson(args.jsonPath, table);
    return 0;
}
