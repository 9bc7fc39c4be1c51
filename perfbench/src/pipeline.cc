/**
 * @file
 * A workload run: the three stages set up together and answered one
 * after the other in every rep, then reported.
 */

#include "workloads.hh"

namespace perfbench {

void
runWorkload(const Options& opt, Report& report)
{
    std::unique_ptr<Tracer> tracer;
    if (opt.trace)
        tracer = std::make_unique<Tracer>();

    std::vector<std::unique_ptr<Stage>> stages;
    stages.push_back(makeZooTune(opt));
    stages.push_back(makeFleetDay(opt));
    stages.push_back(makeEngineServe(opt));

    SetupLog setups;
    const RepLog log = measureReps(
        opt.seconds, 1, tracer.get(),
        [&] {
            // Two set-ups before the first rep and one after each rep:
            // three on a one-rep run.
            timeSetups(
                opt.smoke, setups.walls.empty() ? 2 : 1, 0.0, tracer.get(),
                setups,
                [&] {
                    for (const auto& stage : stages)
                        stage->clear();
                },
                [&](Tracer* t) {
                    for (const auto& stage : stages)
                        stage->setUp(t);
                });
        },
        [&](Tracer* t) {
            Digest digest;
            for (const auto& stage : stages)
                digest.add(stage->rep(t, report).value());
            return digest;
        });
    report.check(sameDigests(log),
                 "every rep, traced or not, gives one simulated digest");

    for (const auto& stage : stages)
        stage->finish(log, report);
    report.note("set-up s: " + listOf(setups.walls) + "; rep s: " +
                listOf(log.walls) + "; traced rep s: " +
                listOf(log.tracedWalls));
    report.note("digest " + opt.workload + " " + log.digests.front().hex());

    if (!opt.trace) {
        report.metric("setup_s", median(setups.walls), "s");
        report.metric("peak_rss_mb", peakRssMb(), "MB");
        return;
    }
    // Host time to answer the three questions once, from the untraced
    // reps of this run: too unsteady between runs on a shared host to
    // bound.
    report.metric("wall_s", median(log.walls), "s");
    reportSetupLayers(report, setups.totals);
    reportTraceOverhead(report, log);
    const std::string path =
        opt.outDir + "/perfbench-" + opt.workload + ".trace.json";
    report.check(tracer->write(path), "span trace written to " + path);
}

} // namespace perfbench
