/**
 * @file
 * fleet_day: one seeded diurnal day of colocated traffic served twice
 * on the same wide tier.
 *
 * The tier: kMachines Skylake machines each serving DLRM-RMC2,
 * Wide&Deep and NCF, every embedding table on at least two machines,
 * shard-aware routing with a two-stage join, deadline admission with
 * degraded serving, and seeded crashes and gray failures with
 * failover. The day swings 2x from trough to peak, and the peak is
 * above the tier's capacity, so admission sheds a minority of it.
 *
 *  - Phase (a): ClusterSimulator::run with hedged requests and no
 *    observer, its router wrapped in a timing shim on traced reps.
 *  - Phase (b): Autoscaler::run under the reactive policy with a
 *    sampled RunObserver attached, whose trace is written afterwards
 *    as in the operator runbook. Hedging is off: the elastic tier
 *    refuses it. The elastic driver builds its own router, so its
 *    routing time stays inside driver.elastic.self_s.
 *
 * MixedTraceTemplate has no diurnal re-timing, so the day is built
 * here: each model's template is re-timed by materializeDiurnal and
 * the per-model traces are merged by arrival (ties to the lower
 * model) with kMixedQueryIdStride ids, as MixedTraceTemplate does.
 *
 * The day's queries take the workload's sizes. Its mean rate and query
 * count are scaled by Options::loadScale, so that every workload's day
 * lasts the same simulated seconds and peaks above the tier's capacity.
 */

#include <algorithm>
#include <cmath>

#include "cluster/autoscaler.hh"
#include "cluster/cluster_sim.hh"
#include "cluster/model_mix.hh"
#include "loadgen/query_stream.hh"
#include "obs/observer.hh"
#include "shims.hh"
#include "workloads.hh"

using namespace deeprecsys;

namespace perfbench {

namespace {

constexpr size_t kMachines = 128;
constexpr size_t kSmokeMachines = 24;
constexpr uint64_t kMachineBytes = 1'000'000'000ULL;

/**
 * One compressed day of production-sized queries: its queries and mean
 * offered rate (6 simulated seconds). The peak (4/3 of the mean at a 2x
 * swing) is above what the tier serves within the deadline, so
 * admission sheds part of it.
 */
constexpr size_t kDayQueries = 144000;
constexpr size_t kSmokeDayQueries = 13500;
constexpr double kMeanQps = 24000.0;
constexpr double kPeakToTrough = 2.0;

/** Embedding tables each query draws (NCF has only 4). */
constexpr uint32_t kTablesPerQuery = 6;

constexpr double kDeadlineSeconds = 0.1;
constexpr double kCrashesPerDay = 24.0;   // and as many gray windows

/**
 * Time constants in simulated seconds, several deadlines long as in the
 * operator runbook (0.75 s windows, 0.5 s warm-up), shortened so that
 * the 6-second day still holds 15 control windows.
 */
constexpr double kControlSeconds = 0.4;
constexpr double kWarmupSeconds = 0.3;
constexpr double kRepairSeconds = 0.5;    // crash repair and gray window

/** The colocated mix (traffic shares of the day). */
std::vector<ModelMixEntry>
mixEntries()
{
    std::vector<ModelMixEntry> mix;
    for (auto [id, share] : {std::pair{ModelId::DlrmRmc2, 0.4},
                             std::pair{ModelId::WideAndDeep, 0.4},
                             std::pair{ModelId::Ncf, 0.2}}) {
        ModelMixEntry entry = makeMixEntry(id, share);
        entry.policy.perRequestBatch = 256;
        mix.push_back(entry);
    }
    return mix;
}

struct FleetState
{
    ClusterConfig cluster;        ///< phase (a) tier, hedging on
    AutoscaleSpec elastic;        ///< phase (b) tier, hedging off
    QueryTrace day;
    size_t machines = 0;
};

QueryTrace
diurnalDay(const Options& opt, const std::vector<ModelMixEntry>& mix,
           const DiurnalProfile& profile, double mean_qps, size_t count)
{
    LoadSpec base;
    base.sizes = opt.sizes;
    base.arrivalSeed = opt.subSeed(30);
    base.sizeSeed = opt.subSeed(31);
    MixedTraceTemplate mixed(base, mixFractions(mix));
    mixed.ensure(count);
    std::vector<QueryTrace> parts(mix.size());
    for (uint32_t k = 0; k < mix.size(); k++) {
        parts[k] = mixed.templateOf(k).materializeDiurnal(
            mix[k].trafficFraction * mean_qps, profile,
            mixed.countOfModel(k, count));
    }
    QueryTrace day;
    day.reserve(count);
    std::vector<size_t> pos(parts.size(), 0);
    while (day.size() < count) {
        size_t best = parts.size();
        for (size_t k = 0; k < parts.size(); k++) {
            if (pos[k] < parts[k].size() &&
                (best == parts.size() ||
                 parts[k][pos[k]].arrivalSeconds <
                     parts[best][pos[best]].arrivalSeconds))
                best = k;
        }
        Query q = parts[best][pos[best]++];
        q.model = static_cast<uint32_t>(best);
        q.id += static_cast<uint64_t>(best) * kMixedQueryIdStride;
        day.push_back(q);
    }
    return day;
}

void
buildFleet(const Options& opt, Tracer* tracer, FleetState& state)
{
    const std::vector<ModelMixEntry> mix = mixEntries();
    const size_t n = opt.smoke ? kSmokeMachines : kMachines;
    state.machines = n;
    ClusterConfig& cluster = state.cluster;
    {
        SpanScope span(tracer, SpanKind::SetupMachines);
        for (size_t m = 0; m < n; m++) {
            cluster.machines.push_back(
                colocatedMachine(mix, CpuPlatform::skylake(), kMachineBytes));
        }
    }
    {
        SpanScope span(tracer, SpanKind::SetupPlacement);
        PlacementSpec placement;
        placement.strategy = PlacementStrategy::GreedyBySize;
        placement.minReplicas = 2;
        cluster.sharding = colocatedSharding(
            mix, machineMemoryBudgets(cluster.machines), placement,
            kTablesPerQuery);
    }
    cluster.modelMix = mix;
    cluster.network.hopSeconds = 150e-6;
    cluster.network.gigabytesPerSecond = 12.5;
    cluster.join = JoinModel::TwoStage;
    cluster.overload.admission = AdmissionKind::Deadline;
    cluster.overload.deadlineSeconds = kDeadlineSeconds;
    cluster.overload.degrade = true;

    // The smoke tier gets the same load per machine on a shorter day
    // (3 simulated seconds).
    const double mean_qps =
        opt.loadScale * kMeanQps * static_cast<double>(n) / kMachines;
    const size_t day_queries = static_cast<size_t>(std::lround(
        opt.loadScale *
        static_cast<double>(opt.smoke ? kSmokeDayQueries : kDayQueries)));
    const double day_s = static_cast<double>(day_queries) / mean_qps;
    const double machine_hours = static_cast<double>(n) * day_s / 3600.0;
    // The chaos schedule is part of the tier, not of the traffic: its
    // seed is fixed, so a seed changes only the day's queries. Many
    // short faults rather than a few long ones keep the day's books
    // from hinging on where one crash lands.
    FaultPlan& faults = cluster.faults;
    faults.seed = 0xfa17da7ULL;
    faults.crashesPerHour = kCrashesPerDay / machine_hours;
    faults.repairSeconds = kRepairSeconds;
    faults.grayPerHour = kCrashesPerDay / machine_hours;
    faults.grayDurationSeconds = kRepairSeconds;
    faults.faultTolerance = 2;
    faults.maxFailovers = 3;

    const DiurnalProfile profile(kPeakToTrough, day_s);
    {
        SpanScope span(tracer, SpanKind::SetupTrace);
        state.day = diurnalDay(opt, mix, profile, mean_qps, day_queries);
    }

    AutoscaleSpec& elastic = state.elastic;
    elastic.cluster = cluster;   // copied before hedging is switched on
    elastic.routing.kind = RoutingKind::ShardAware;
    elastic.slaMs = 0.8 * kDeadlineSeconds * 1e3;
    elastic.percentile = 99.0;
    elastic.controlIntervalSeconds = kControlSeconds;
    elastic.warmupDelaySeconds = kWarmupSeconds;
    elastic.profile = profile;
    elastic.meanQps = mean_qps;
    elastic.machinesAtPeak = n;
    // Hedge only parts that are late against the deadline, not the
    // body of the latency distribution.
    cluster.hedge.delaySeconds = 0.6 * kDeadlineSeconds;
}

void
digestMachines(Digest& d, const std::vector<MachineStats>& machines)
{
    for (const MachineStats& m : machines) {
        d.add(m.queriesDispatched);
        d.add(m.queriesCompleted);
        d.add(m.requestsDispatched);
        d.add(m.remoteParts);
        d.add(m.joinPhases);
        d.add(m.busyCoreSeconds);
        d.add(m.cpuUtilization);
        d.add(m.latencySeconds);
    }
}

void
digestBooks(Digest& d, const OverloadStats& o, const FaultStats& f)
{
    for (uint64_t v : {o.offered, o.admitted, o.dropped, o.droppedFinal,
                       o.retried, o.degraded, o.measuredCompleted,
                       o.completedWithinDeadline})
        d.add(v);
    d.add(o.qualityWeight);
    d.add(o.goodputQps);
    for (uint64_t q : o.droppedQueries)
        d.add(q);
    for (const DegradeRecord& r : o.degradedQueries) {
        d.add(r.queryIdx);
        d.add(static_cast<uint64_t>(r.servedSize));
    }
    for (uint64_t v : {f.crashes, f.recoveries, f.grayWindows,
                       f.netDegradeWindows, f.partsLost, f.lost,
                       f.failovers, f.unroutable, f.hedged, f.hedgeWins,
                       f.hedgeWasted, f.hedgeSaves})
        d.add(v);
    for (uint64_t q : f.lostQueries)
        d.add(q);
}

Digest
digestStatic(const ClusterResult& r)
{
    Digest d;
    d.add(r.fleetLatencySeconds);
    digestMachines(d, r.perMachine);
    for (uint32_t m : r.machineOfQuery)
        d.add(static_cast<uint64_t>(m));
    for (const std::vector<uint32_t>& parts : r.partMachinesOfQuery) {
        d.add(static_cast<uint64_t>(parts.size()));
        for (uint32_t m : parts)
            d.add(static_cast<uint64_t>(m));
    }
    for (uint64_t v : {r.numQueries, r.numDispatched, r.numCompleted,
                       r.numParts})
        d.add(v);
    d.add(r.meanFanout);
    d.add(r.achievedQps);
    d.add(r.spanSeconds);
    digestBooks(d, r.overload, r.faults);
    for (const ModelStats& m : r.perModel) {
        for (uint64_t v : {m.offered, m.dispatched, m.completed,
                           m.droppedFinal, m.lost})
            d.add(v);
        d.add(m.latencySeconds);
    }
    return d;
}

Digest
digestElastic(const AutoscaleResult& r, const obs::RunObserver& observer)
{
    Digest d;
    d.add(r.fleetLatencySeconds);
    digestMachines(d, r.perMachine);
    for (double s : r.poweredSecondsPerMachine)
        d.add(s);
    for (uint64_t v : {r.numQueries, r.numDispatched, r.numCompleted,
                       r.numParts})
        d.add(v);
    d.add(r.spanSeconds);
    d.add(r.machineSeconds);
    d.add(r.slaViolationSeconds);
    digestBooks(d, r.overload, r.faults);
    for (const ScaleEvent& e : r.scaleEvents) {
        d.add(e.timeSeconds);
        d.add(static_cast<uint64_t>(e.target));
        d.add(static_cast<uint64_t>(e.granted));
    }
    for (const AutoscaleWindow& w : r.timeline) {
        d.add(w.tailMs);
        d.add(w.utilization);
        d.add(static_cast<uint64_t>(w.servingMachines));
        d.add(static_cast<uint64_t>(w.poweredMachines));
    }
    d.add(static_cast<uint64_t>(observer.numTraceEvents()));
    const obs::StageSplit& split = observer.stageSplit();
    for (double s : {split.queueSeconds, split.serviceSeconds,
                     split.networkSeconds, split.joinWaitSeconds,
                     split.totalSeconds})
        d.add(s);
    return d;
}

/** Simulated events, as perf_engine counts them. */
template <typename Result>
uint64_t
eventsOf(const Result& r)
{
    uint64_t n = r.numParts + r.numCompleted;
    for (const MachineStats& m : r.perMachine)
        n += m.requestsDispatched + m.joinPhases;
    return n;
}

/** What one rep leaves behind for the report. */
struct FleetRep
{
    ClusterResult stat;
    AutoscaleResult elastic;
    double staticWall = 0;
    double elasticWall = 0;
    uint64_t traceEvents = 0;
    Digest elasticDigest;        ///< elastic result + observer output
    uint64_t routedParts = 0;    ///< traced reps only (router shim)
    uint64_t emptyPlans = 0;
};

FleetRep
serveDay(const Options& opt, const FleetState& state, Tracer* tracer)
{
    FleetRep rep;
    const ClusterSimulator sim(state.cluster);
    const std::unique_ptr<RoutingPolicy> router = makeRoutingPolicy(
        RoutingSpec{RoutingKind::ShardAware}, &*sim.config().sharding);
    {
        const Clock::time_point t0 = Clock::now();
        SpanScope span(tracer, SpanKind::StaticRun);
        if (tracer) {
            TimedRouting shim(*router, *tracer);
            rep.stat = sim.run(state.day, shim);
            rep.routedParts = shim.parts();
            rep.emptyPlans = shim.emptyPlans();
        } else {
            rep.stat = sim.run(state.day, *router);
        }
        rep.staticWall = secondsSince(t0);
    }

    Autoscaler scaler(state.elastic);
    obs::RunObserver observer(obs::ObsConfig::full(0.005), state.machines);
    scaler.setObserver(&observer);
    ScalingPolicySpec policy_spec;
    policy_spec.kind = ScalingPolicyKind::Reactive;
    policy_spec.minMachines = 2;
    policy_spec.downLatencyFraction = 0.8;
    policy_spec.downUtilization = 0.5;
    const std::unique_ptr<ScalingPolicy> policy =
        makeScalingPolicy(policy_spec, state.elastic);
    {
        const Clock::time_point t0 = Clock::now();
        SpanScope span(tracer, SpanKind::ElasticRun);
        if (tracer) {
            TimedScaling shim(*policy, *tracer);
            rep.elastic = scaler.run(state.day, shim);
        } else {
            rep.elastic = scaler.run(state.day, *policy);
        }
        rep.elasticWall = secondsSince(t0);
    }
    rep.traceEvents = observer.numTraceEvents();
    rep.elasticDigest = digestElastic(rep.elastic, observer);
    {
        SpanScope span(tracer, SpanKind::ObsWrite);
        observer.writeTraceFile(opt.outDir + "/perfbench-" + opt.workload +
                                ".obs.json");
    }
    return rep;
}

/** The output checks of one rep; returns the rep's digest. */
Digest
checkRep(const FleetState& state, const FleetRep& rep, Report& report)
{
    const ClusterResult& s = rep.stat;
    // Both drivers assert fault conservation and the per-model offered
    // and completed tiling at the end of run(); a violation aborts the
    // run. These are the per-model sums the drivers do not check.
    ModelStats sum;
    size_t measured = 0;
    for (const ModelStats& m : s.perModel) {
        sum.dispatched += m.dispatched;
        sum.droppedFinal += m.droppedFinal;
        sum.lost += m.lost;
        measured += m.latencySeconds.count();
    }
    report.check(s.perModel.size() == state.cluster.modelMix.size() &&
                     sum.dispatched == s.numDispatched &&
                     sum.droppedFinal == s.overload.droppedFinal &&
                     sum.lost == s.faults.lost &&
                     measured == s.fleetLatencySeconds.count(),
                 "per-model books sum to the fleet totals");

    Digest d = digestStatic(s);
    d.add(rep.elasticDigest.value());
    return d;
}

/** The fleet_day stage. */
class FleetDay final : public Stage
{
  public:
    explicit FleetDay(const Options& opt) : opt_(opt) {}

    void clear() override { state_ = FleetState{}; }

    void
    setUp(Tracer* tracer) override
    {
        buildFleet(opt_, tracer, state_);
    }

    Digest
    rep(Tracer* tracer, Report& report) override
    {
        last_ = FleetRep{};   // free the previous day's books first
        last_ = serveDay(opt_, state_, tracer);
        if (tracer) {
            routedParts_ = last_.routedParts;
            emptyPlans_ = last_.emptyPlans;
        } else {
            staticWalls_.push_back(last_.staticWall);
            elasticWalls_.push_back(last_.elasticWall);
            dayWalls_.push_back(last_.staticWall + last_.elasticWall);
        }
        digest_ = checkRep(state_, last_, report);
        return digest_;
    }

    void finish(const RepLog& log, Report& report) override;

  private:
    const Options& opt_;
    FleetState state_;
    FleetRep last_;
    Digest digest_;                     ///< of the last rep
    std::vector<double> staticWalls_;   ///< untraced reps
    std::vector<double> elasticWalls_;
    std::vector<double> dayWalls_;
    uint64_t routedParts_ = 0;          ///< traced reps' router shim
    uint64_t emptyPlans_ = 0;
};

void
FleetDay::finish(const RepLog& log, Report& report)
{
    const ClusterResult& s = last_.stat;
    const AutoscaleResult& e = last_.elastic;
    const double offered = static_cast<double>(state_.day.size());
    const uint64_t events_static = eventsOf(s);
    const uint64_t events_elastic = eventsOf(e);
    size_t fewest = state_.machines;
    size_t most = 0;
    for (const AutoscaleWindow& w : e.timeline) {
        fewest = std::min(fewest, w.servingMachines);
        most = std::max(most, w.servingMachines);
    }
    report.note("fleet_day: " + std::to_string(state_.machines) +
                " machines, " + std::to_string(state_.day.size()) +
                " queries over " +
                std::to_string(state_.elastic.profile.periodSeconds()) +
                " simulated s; static: shed " +
                std::to_string(s.overload.shedRate()) + ", availability " +
                std::to_string(s.numCompleted / offered) + ", p99 " +
                std::to_string(s.p99Ms()) + " ms over " +
                std::to_string(s.numQueries) + " measured, " +
                std::to_string(events_static) + " events; elastic: saved " +
                std::to_string(e.machineHoursSavedFraction()) +
                ", violating " + std::to_string(e.slaViolationMinutes()) +
                " min, shed " + std::to_string(e.overload.shedRate()) +
                ", serving " + std::to_string(fewest) + ".." +
                std::to_string(most) + " machines over " +
                std::to_string(e.timeline.size()) + " windows, " +
                std::to_string(events_elastic) + " events");
    report.note("fleet_day static s: " + listOf(staticWalls_) +
                "; elastic s: " + listOf(elasticWalls_));
    report.note("digest fleet_day " + digest_.hex());

    if (!opt_.trace) {
        report.metric("sim_goodput_qps", s.overload.goodputQps, "q/s");
        report.metric("sim_availability", s.numCompleted / offered, "frac");
        report.metric("sim_p99_ms", s.p99Ms(), "ms");
        report.metric("sim_machine_hours_saved",
                      e.machineHoursSavedFraction(), "frac");
        return;
    }

    // Reported on traced runs only: the host times (the untraced reps
    // of this run), too unsteady between runs on a shared host to
    // bound.
    std::vector<double> static_rates;
    std::vector<double> elastic_rates;
    for (double w : staticWalls_)
        static_rates.push_back(events_static / w);
    for (double w : elasticWalls_)
        elastic_rates.push_back(events_elastic / w);
    report.metric("day.wall_s", median(dayWalls_), "s");
    report.metric("static_events_per_s", median(static_rates), "1/s");
    report.metric("elastic_events_per_s", median(elastic_rates), "1/s");

    const std::vector<SpanTotals>& tr = log.traced;
    const double calls =
        static_cast<double>(tr.back().calls(SpanKind::RouteParts));
    const double routing_s = medianTotal(tr, SpanKind::RouteParts);
    report.metric("routing.calls", calls, "count");
    report.metric("routing.self_s", medianSelf(tr, SpanKind::RouteParts),
                  "s");
    report.metric("routing.us_per_call", 1e6 * routing_s / calls, "us");
    report.metric("routing.parts_per_call", routedParts_ / calls, "count");
    report.metric("routing.empty_plans", static_cast<double>(emptyPlans_),
                  "count");
    report.metric("driver.static.self_s",
                  medianSelf(tr, SpanKind::StaticRun), "s");
    report.metric("driver.elastic.self_s",
                  medianSelf(tr, SpanKind::ElasticRun), "s");
    report.metric("events.static", static_cast<double>(events_static),
                  "count");
    report.metric("events.elastic", static_cast<double>(events_elastic),
                  "count");

    // Result books of both phases: unprefixed names are the static
    // phase, elastic.* the elastic phase.
    auto books = [&](const std::string& tag, const OverloadStats& o,
                     const FaultStats& f,
                     const std::vector<MachineStats>& machines) {
        report.metric(tag + "admission.offered",
                      static_cast<double>(o.offered), "count");
        report.metric(tag + "admission.dropped",
                      static_cast<double>(o.dropped), "count");
        report.metric(tag + "admission.degraded",
                      static_cast<double>(o.degraded), "count");
        report.metric(tag + "admission.retried",
                      static_cast<double>(o.retried), "count");
        report.metric(tag + "admission.admit_frac",
                      o.offered ? static_cast<double>(o.admitted) /
                              static_cast<double>(o.offered)
                                : 0.0,
                      "frac");
        report.metric(tag + "faults.crashes",
                      static_cast<double>(f.crashes), "count");
        report.metric(tag + "faults.failovers",
                      static_cast<double>(f.failovers), "count");
        report.metric(tag + "faults.lost", static_cast<double>(f.lost),
                      "count");
        uint64_t requests = 0;
        uint64_t joins = 0;
        double util = 0.0;
        for (const MachineStats& m : machines) {
            requests += m.requestsDispatched;
            joins += m.joinPhases;
            util += m.cpuUtilization;
        }
        report.metric(tag + "engine.requests",
                      static_cast<double>(requests), "count");
        report.metric(tag + "engine.join_phases",
                      static_cast<double>(joins), "count");
        report.metric(tag + "engine.cpu_util",
                      util / static_cast<double>(machines.size()), "frac");
    };
    books("", s.overload, s.faults, s.perMachine);
    books("elastic.", e.overload, e.faults, e.perMachine);
    report.metric("hedge.sent", static_cast<double>(s.faults.hedged),
                  "count");
    report.metric("hedge.wins", static_cast<double>(s.faults.hedgeWins),
                  "count");
    report.metric("hedge.win_frac",
                  s.faults.hedged ? static_cast<double>(s.faults.hedgeWins) /
                          static_cast<double>(s.faults.hedged)
                                  : 0.0,
                  "frac");
    report.metric("scaling.calls",
                  static_cast<double>(tr.back().calls(
                      SpanKind::TargetMachines)),
                  "count");
    report.metric("scaling.self_s",
                  medianSelf(tr, SpanKind::TargetMachines), "s");
    report.metric("autoscale.scale_events",
                  static_cast<double>(e.scaleEvents.size()), "count");
    report.metric("autoscale.machine_s", e.machineSeconds, "s");
    report.metric("autoscale.lost", static_cast<double>(e.faults.lost),
                  "count");
    report.metric("obs.trace_events", static_cast<double>(last_.traceEvents),
                  "count");
    report.metric("obs.write_s", medianTotal(tr, SpanKind::ObsWrite), "s");
}

} // namespace

std::unique_ptr<Stage>
makeFleetDay(const Options& opt)
{
    return std::make_unique<FleetDay>(opt);
}

} // namespace perfbench
