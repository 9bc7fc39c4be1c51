/**
 * @file
 * Observability timeline study: one reactive elastic-tier day with
 * the full RunObserver attached, printed as the operator would see it.
 *
 * Where autoscale_diurnal sweeps (ratio x policy) cells and reports
 * one summary row per cell, this binary runs a single small reactive
 * day and surfaces what the in-run observability layer records along
 * the way: the control-window timeline (machines, utilization,
 * windowed tail, arrival rate), the metric snapshot axis (asserted to
 * align one-to-one with the control ticks), and the latency
 * attribution stage split — the paper's Figure-6-style
 * where-did-the-time-go decomposition, here measured on the elastic
 * tier instead of a single machine.
 *
 * The tier is deliberately small (a handful of machines at a rate one
 * machine serves comfortably at trough) so the run takes seconds and
 * the timeline table stays readable.
 *
 * Usage: obs_timeline [--smoke] [--trace F] [--metrics F] [out.json]
 * --trace / --metrics write the run's Chrome trace-event JSON and
 * windowed metrics JSON; the optional positional path writes the
 * timeline table as a JSON array. Output — files included — is
 * deterministic and bitwise identical at every DRS_THREADS value (a
 * single run is single-threaded by design).
 *
 * Host-measured lines: none; every printed figure is seeded and
 * deterministic.
 */

#include <cstring>
#include <fstream>
#include <string>

#include "bench/bench_common.hh"
#include "cluster/autoscaler.hh"

using namespace deeprecsys;

namespace {

SimConfig
cpuMachine(size_t batch)
{
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc1);
    SchedulerPolicy policy;
    policy.perRequestBatch = batch;
    return SimConfig{CpuCostModel(profile, CpuPlatform::skylake()),
                     std::nullopt, policy};
}

} // namespace

int
main(int argc, char** argv)
{
    bool smoke = false;
    std::string json_path;
    std::string trace_path;
    std::string metrics_path;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
            trace_path = argv[++i];
        else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc)
            metrics_path = argv[++i];
        else
            json_path = argv[i];
    }

    const double sla_ms = 100.0;
    const double peak_qps = 8000.0;
    const size_t machines = 4;
    const double day_seconds = smoke ? 12.0 : 45.0;
    const double ratio = 2.0;

    printBanner(std::cout,
                "Observability timeline: one reactive elastic day (" +
                    TextTable::num(static_cast<int64_t>(machines)) +
                    " machines, peak " + TextTable::num(peak_qps, 0) +
                    " QPS, p99 <= " + TextTable::num(sla_ms, 0) +
                    " ms)");

    const DiurnalProfile profile(ratio, day_seconds);
    const double mean_qps = peak_qps / (1.0 + profile.swingAmplitude());

    LoadSpec load;
    load.qps = mean_qps;
    TraceTemplate tmpl(load);
    const size_t count = static_cast<size_t>(mean_qps * day_seconds);
    tmpl.ensure(count);
    const QueryTrace trace =
        tmpl.materializeDiurnal(mean_qps, profile, count);

    AutoscaleSpec spec;
    for (size_t m = 0; m < machines; m++)
        spec.cluster.machines.push_back(cpuMachine(256));
    spec.routing.kind = RoutingKind::PowerOfTwoChoices;
    spec.slaMs = sla_ms;
    spec.controlIntervalSeconds = 0.75;
    spec.warmupDelaySeconds = 0.5;
    spec.profile = profile;
    spec.meanQps = mean_qps;
    spec.machinesAtPeak = machines;

    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Reactive;
    policy.minMachines = 1;

    const obs::ObsConfig obs_cfg = obs::ObsConfig::full(0.02);
    obs::RunObserver observer(obs_cfg, machines);

    Autoscaler scaler(spec);
    scaler.setObserver(&observer);
    const AutoscaleResult r = scaler.run(trace, policy);
    drs_assert(r.numDispatched == r.numCompleted &&
                   r.numDispatched == trace.size(),
               "elastic run lost queries");

    // The snapshot axis IS the control-tick axis: the driver
    // snapshots the registry exactly once per tick, after pushing the
    // timeline row.
    const std::vector<double>& snaps =
        observer.metrics().snapshotTimes();
    drs_assert(snaps.size() == r.timeline.size(),
               "metric snapshots out of step with control ticks");
    for (size_t w = 0; w < snaps.size(); w++)
        drs_assert(snaps[w] == r.timeline[w].endSeconds,
                   "snapshot time diverged from its control tick");

    TextTable table({"window end (s)", "serving", "powered", "util %",
                     "window p99 (ms)", "arrival QPS", "SLA"});
    for (const AutoscaleWindow& w : r.timeline) {
        table.addRow({
            TextTable::num(w.endSeconds, 2),
            TextTable::num(static_cast<int64_t>(w.servingMachines)),
            TextTable::num(static_cast<int64_t>(w.poweredMachines)),
            TextTable::num(100.0 * w.utilization, 1),
            w.tailMs >= 0.0 ? TextTable::num(w.tailMs, 1) : "-",
            TextTable::num(w.arrivalQps, 0),
            w.slaViolation ? "VIOLATED" : "ok",
        });
    }
    table.print(std::cout);

    std::cout << "\nday p99 " << TextTable::num(r.p99Ms(), 1)
              << " ms over "
              << TextTable::num(static_cast<int64_t>(r.numCompleted))
              << " queries; "
              << TextTable::num(static_cast<int64_t>(snaps.size()))
              << " metric snapshots on the control ticks; "
              << TextTable::num(
                     static_cast<int64_t>(r.scaleEvents.size()))
              << " scale events; span sample rate "
              << TextTable::num(obs_cfg.spanSampleRate, 2) << " -> "
              << TextTable::num(
                     static_cast<int64_t>(observer.numTraceEvents()))
              << " trace events\n\n";

    bench::printStageSplit(std::cout, observer.stageSplit());

    std::cout
        << "\nReading the split: on a non-sharded tier a query is one"
           " whole part, so join wait is zero and network is exactly"
           " the forward plus return router hop. Queue versus service"
           " tracks the windows above - when the reactive policy runs"
           " the tier hot near a shed, the queue share grows first;"
           " that is the same signal the windowed p99 column shows,"
           " attributed per query instead of per window.\n";

    if (!trace_path.empty() && observer.writeTraceFile(trace_path))
        std::cout << "wrote " << trace_path << "\n";
    if (!metrics_path.empty() && observer.writeMetricsFile(metrics_path))
        std::cout << "wrote " << metrics_path << "\n";
    if (!json_path.empty()) {
        std::ofstream json(json_path);
        table.printJson(json);
        std::cout << "wrote " << json_path << "\n";
    }
    return 0;
}
