#include "autoscaler.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "cluster/part_book.hh"
#include "cluster/query_book.hh"
#include "cluster/routing_policy.hh"
#include "loadgen/query_stream.hh"
#include "obs/observer.hh"
#include "sim/machine_engine.hh"

namespace deeprecsys {

const char*
scalingPolicyName(ScalingPolicyKind kind)
{
    switch (kind) {
      case ScalingPolicyKind::Static:     return "static";
      case ScalingPolicyKind::Reactive:   return "reactive";
      case ScalingPolicyKind::Predictive: return "predictive";
    }
    return "unknown";
}

const std::vector<ScalingPolicyKind>&
allScalingPolicyKinds()
{
    static const std::vector<ScalingPolicyKind> kinds = {
        ScalingPolicyKind::Static,
        ScalingPolicyKind::Reactive,
        ScalingPolicyKind::Predictive,
    };
    return kinds;
}

namespace {

/** Clamp a policy's ask to what the tier can actually field. */
size_t
clampTarget(size_t desired, size_t min_machines, size_t max_machines)
{
    return std::clamp(desired, std::max<size_t>(1, min_machines),
                      max_machines);
}

/** The static peak plan as a policy: the comparison baseline. */
class StaticPolicy final : public ScalingPolicy
{
  public:
    explicit StaticPolicy(const ScalingPolicySpec& spec) : spec_(spec) {}

    size_t
    targetMachines(const ScalingSignals& signals) override
    {
        const size_t fixed = spec_.staticMachines > 0
            ? spec_.staticMachines
            : signals.maxMachines;
        return clampTarget(fixed, spec_.minMachines, signals.maxMachines);
    }

    ScalingPolicyKind kind() const override
    {
        return ScalingPolicyKind::Static;
    }

  private:
    ScalingPolicySpec spec_;
};

/**
 * Measurement-driven feedback: steer the accepting-capacity
 * utilization into [downUtilization, upUtilization], sizing jumps so
 * utilization lands near targetUtilization, with windowed tail
 * latency as an override in both directions — a hot tail scales up
 * even when utilization looks fine (the queueing knee precedes core
 * saturation), and an elevated tail blocks scale-down even when
 * utilization looks low (near the knee, utilization is violently
 * nonlinear in offered rate, so it alone cannot be trusted). A
 * second shed gate ratchets on the measured capacity high-water mark
 * (ScalingPolicySpec::shedRateHeadroom). Tail-driven scale-up jumps
 * proportionally (emergency); utilization-driven growth steps by
 * maxStepUp, and scale-down sheds at most maxStepDown per tick so a
 * measurement dip cannot collapse the tier.
 */
class ReactivePolicy final : public ScalingPolicy
{
  public:
    ReactivePolicy(const ScalingPolicySpec& spec, double sla_ms)
        : spec_(spec), slaMs(sla_ms)
    {
        if (!(spec_.targetUtilization > 0.0 &&
              spec_.targetUtilization < 1.0))
            drs_fatal("target utilization must be in (0, 1)");
        if (!(spec_.downUtilization <= spec_.targetUtilization &&
              spec_.targetUtilization <= spec_.upUtilization))
            drs_fatal("utilization band must bracket the target");
    }

    size_t
    targetMachines(const ScalingSignals& signals) override
    {
        const size_t serving =
            signals.acceptingMachines + signals.warmingMachines;
        const double util = signals.windowUtilization;
        // Shed queries are an emergency on par with a hot tail: the
        // router is refusing work right now, so jump proportionally
        // instead of stepping. Zero whenever overload control is off,
        // so the historical policy is untouched.
        const bool shedding = signals.windowDrops > 0;
        const bool hot_tail = shedding ||
            (signals.windowTailMs >= 0.0 &&
             signals.windowTailMs > spec_.slaHeadroomFraction * slaMs);

        const bool calm_tail = !shedding &&
            (signals.windowTailMs < 0.0 ||
             signals.windowTailMs <
                 spec_.downLatencyFraction * slaMs);

        // Ratchet the measured capacity high-water mark: the highest
        // per-accepting-machine rate served with a comfortable tail.
        // A shedding window never ratchets — its arrival rate was not
        // actually served, only offered.
        if (!shedding && signals.acceptingMachines > 0 &&
            signals.windowTailMs >= 0.0 &&
            signals.windowTailMs < 0.5 * slaMs) {
            highWaterQps = std::max(
                highWaterQps,
                signals.arrivalQps /
                    static_cast<double>(signals.acceptingMachines));
        }

        size_t desired = serving;
        if (util > spec_.upUtilization || hot_tail) {
            // Size the jump so utilization lands on target; always
            // grow by at least one machine when hot. Growth on
            // utilization alone is stepped (tracking a ramp), only a
            // hot tail may jump proportionally (emergency).
            desired = static_cast<size_t>(std::ceil(
                static_cast<double>(serving) * util /
                spec_.targetUtilization));
            desired = std::max(desired, serving + 1);
            if (!hot_tail)
                desired = std::min(desired, serving + spec_.maxStepUp);
        } else if (util < spec_.downUtilization && calm_tail &&
                   serving > 1) {
            const size_t step =
                std::min(spec_.maxStepDown, serving - 1);
            // Two shed gates. Projected utilization must stay under
            // the scale-up threshold, or the shed would immediately
            // bounce back; and the projected per-machine rate must
            // stay within the measured capacity high-water mark —
            // near the knee, utilization and tail both look calm one
            // machine above the melt-down point, so only the served-
            // rate history bounds how far down is safe.
            const double shrunk = static_cast<double>(serving - step);
            const double projected_util =
                util * static_cast<double>(serving) / shrunk;
            const bool rate_safe = highWaterQps <= 0.0 ||
                signals.arrivalQps / shrunk <=
                    highWaterQps * spec_.shedRateHeadroom;
            if (projected_util < spec_.upUtilization && rate_safe) {
                const size_t want = static_cast<size_t>(std::ceil(
                    static_cast<double>(serving) * util /
                    spec_.targetUtilization));
                desired = std::max(want, serving - step);
            }
        }
        return clampTarget(desired, spec_.minMachines,
                           signals.maxMachines);
    }

    ScalingPolicyKind kind() const override
    {
        return ScalingPolicyKind::Reactive;
    }

  private:
    ScalingPolicySpec spec_;
    double slaMs;

    /** Highest per-accepting-machine rate served with a calm tail. */
    double highWaterQps = 0.0;
};

/**
 * Profile-aware feed-forward: provision machines proportional to the
 * rate the diurnal profile predicts one look-ahead out, anchored to
 * the static plan (machinesAtPeak machines carry the peak rate), plus
 * a safety margin for the stochastic arrival/size draws around the
 * profile's mean.
 */
class PredictivePolicy final : public ScalingPolicy
{
  public:
    PredictivePolicy(const ScalingPolicySpec& spec,
                     const AutoscaleSpec& run)
        : spec_(spec), profile(run.profile), meanQps(run.meanQps),
          machinesAtPeak(run.machinesAtPeak)
    {
        drs_assert(meanQps > 0.0,
                   "predictive scaling needs AutoscaleSpec::meanQps");
        drs_assert(machinesAtPeak > 0,
                   "predictive scaling needs AutoscaleSpec::machinesAtPeak");
        peakQps = meanQps * (1.0 + profile.swingAmplitude());
        lead = spec_.leadSeconds > 0.0
            ? spec_.leadSeconds
            : run.warmupDelaySeconds + run.controlIntervalSeconds;
    }

    size_t
    targetMachines(const ScalingSignals& signals) override
    {
        const double predicted =
            meanQps * profile.multiplier(signals.timeSeconds + lead);
        const size_t desired = static_cast<size_t>(std::ceil(
            static_cast<double>(machinesAtPeak) * (predicted / peakQps) *
            (1.0 + spec_.safetyMargin)));
        return clampTarget(desired, spec_.minMachines,
                           signals.maxMachines);
    }

    ScalingPolicyKind kind() const override
    {
        return ScalingPolicyKind::Predictive;
    }

  private:
    ScalingPolicySpec spec_;
    DiurnalProfile profile;
    double meanQps;
    double peakQps = 0.0;
    double lead = 0.0;
    size_t machinesAtPeak;
};

/** Machine lifecycle of the elastic tier. */
enum class MState
{
    Off,        ///< powered down; costs nothing
    Warming,    ///< powered, not yet accepting (warm-up delay)
    Accepting,  ///< in the routing set
    Draining,   ///< out of the routing set, finishing in-flight work
};

/**
 * Live view for the elastic tier: cluster state plus the accepting
 * mask, so routing policies only ever dispatch into the live set.
 */
class ElasticView final : public ClusterView
{
  public:
    ElasticView(const std::vector<SimConfig>& configs,
                const std::vector<MachineEngine>& engines,
                const std::vector<uint64_t>& in_flight,
                const std::vector<MState>& states,
                const size_t& accepting_count,
                const std::vector<double>& pending_join_cost)
        : cfgs(configs), engines(engines), inFlight(in_flight),
          states(states), acceptingCount(accepting_count),
          pendingJoinCost(pending_join_cost)
    {
    }

    size_t numMachines() const override { return engines.size(); }

    size_t
    inFlightQueries(size_t m) const override
    {
        return inFlight[m];
    }

    size_t
    queuedWork(size_t m) const override
    {
        return engines[m].queuedWork();
    }

    size_t
    queuedSamples(size_t m) const override
    {
        return engines[m].queuedSamples();
    }

    double
    queuedCostSeconds(size_t m) const override
    {
        return engines[m].queuedCostSeconds();
    }

    double
    pendingJoinCostSeconds(size_t m) const override
    {
        return pendingJoinCost[m];
    }

    size_t
    numModels() const override
    {
        size_t widest = 1;
        for (const SimConfig& c : cfgs)
            widest = std::max(widest, c.numModels());
        return widest;
    }

    bool
    servesModel(size_t m, uint32_t model) const override
    {
        return cfgs[m].servesModel(model);
    }

    double
    queuedCostSecondsOfModel(size_t m, uint32_t model) const override
    {
        return engines[m].queuedCostSeconds(model);
    }

    bool
    hasGpu(size_t m) const override
    {
        return cfgs[m].policy.gpuEnabled && cfgs[m].gpu.has_value();
    }

    double
    speedFactor(size_t m) const override
    {
        return 1.0 / cfgs[m].slowdown;
    }

    bool
    accepting(size_t m) const override
    {
        return states[m] == MState::Accepting;
    }

    bool
    allAccepting() const override
    {
        return acceptingCount == states.size();
    }

  private:
    const std::vector<SimConfig>& cfgs;
    const std::vector<MachineEngine>& engines;
    const std::vector<uint64_t>& inFlight;
    const std::vector<MState>& states;

    /** Driver-maintained count of Accepting machines (no O(n) scan). */
    const size_t& acceptingCount;

    /** Committed-but-unqueued TwoStage join cost (driver-maintained). */
    const std::vector<double>& pendingJoinCost;
};

} // namespace

std::unique_ptr<ScalingPolicy>
makeScalingPolicy(const ScalingPolicySpec& policy,
                  const AutoscaleSpec& spec)
{
    switch (policy.kind) {
      case ScalingPolicyKind::Static:
        return std::make_unique<StaticPolicy>(policy);
      case ScalingPolicyKind::Reactive:
        return std::make_unique<ReactivePolicy>(policy, spec.slaMs);
      case ScalingPolicyKind::Predictive:
        return std::make_unique<PredictivePolicy>(policy, spec);
    }
    drs_panic("unknown scaling policy kind");
}

Autoscaler::Autoscaler(AutoscaleSpec spec) : spec_(std::move(spec))
{
    const ClusterConfig& cfg = spec_.cluster;
    if (cfg.machines.empty())
        drs_fatal("elastic tier needs machines");
    for (const SimConfig& machine : cfg.machines)
        MachineEngine::validate(machine);
    if (!(spec_.controlIntervalSeconds > 0.0))
        drs_fatal("control interval must be positive");
    if (!(spec_.warmupDelaySeconds >= 0.0))
        drs_fatal("warm-up delay cannot be negative");
    if (spec_.initialMachines > cfg.machines.size())
        drs_fatal("initial machines exceed the tier");
    if (cfg.hedge.enabled())
        drs_fatal("hedged requests are a static-tier feature; the elastic"
                  " driver does not hedge");
    if (!cfg.modelMix.empty()) {
        // Machines power on and off, so every machine must serve the
        // whole mix or a scale-down could strand a model unservable.
        for (const SimConfig& machine : cfg.machines)
            drs_assert(machine.numModels() >= cfg.modelMix.size(),
                       "every elastic machine needs a binding per mix"
                       " entry");
        if (cfg.modelMix.size() > 1 && cfg.sharding.has_value())
            drs_assert(cfg.sharding->models.size() == cfg.modelMix.size(),
                       "a sharded mix needs one table namespace per"
                       " entry");
    }
    if (cfg.faults.enabled()) {
        validateFaultPlan(cfg.faults);
        if (cfg.sharding.has_value() && cfg.faults.faultTolerance > 0)
            drs_assert(cfg.sharding->placement.replicatedFor(
                           cfg.faults.faultTolerance),
                       "placement replication below the declared fault"
                       " tolerance");
    }
    if (cfg.sharding.has_value()) {
        const ShardPlacement& placement = cfg.sharding->placement;
        drs_assert(placement.feasible(),
                   "elastic sharding needs a feasible placement");
        drs_assert(placement.numMachines() == cfg.machines.size(),
                   "placement machine count mismatch");
        drs_assert(cfg.sharding->tableSet.numTables ==
                       placement.numTables(),
                   "table-set model must match the placed tables");
        for (size_t m = 0; m < cfg.machines.size(); m++) {
            const uint64_t budget = cfg.machines[m].memoryBytes;
            drs_assert(budget == 0 ||
                           placement.bytesOnMachine(m) <= budget,
                       "placement exceeds a machine memory budget");
        }
        // The machines accepting at trace start must already cover
        // every table — the mirror of the drain re-validation: a
        // query cannot be routed to a replica that is powered off.
        const size_t initial = spec_.initialMachines == 0
            ? cfg.machines.size()
            : spec_.initialMachines;
        for (uint32_t t = 0;
             t < static_cast<uint32_t>(placement.numTables()); t++) {
            bool covered = false;
            for (size_t m = 0; m < initial && !covered; m++)
                covered = placement.holds(m, t);
            drs_assert(covered,
                       "initial accepting set leaves a table with no"
                       " replica; raise initialMachines");
        }
    }
}

AutoscaleResult
Autoscaler::run(const QueryTrace& trace, ScalingPolicy& policy) const
{
    const ClusterConfig& cfg = spec_.cluster;
    const size_t n = cfg.machines.size();

    AutoscaleResult result;
    result.perMachine.resize(n);
    result.poweredSecondsPerMachine.assign(n, 0.0);
    if (cfg.sharding.has_value()) {
        for (size_t m = 0; m < n; m++)
            result.perMachine[m].embBytesStored =
                cfg.sharding->placement.bytesOnMachine(m);
    }
    if (trace.empty())
        return result;

    const std::unique_ptr<RoutingPolicy> router = makeRoutingPolicy(
        spec_.routing, cfg.sharding.has_value() ? &*cfg.sharding : nullptr);

    const size_t warmup = warmupCount(cfg.warmupFraction, trace.size());
    result.fleetLatencySeconds.reserve(trace.size() - warmup);

    QueryBook queries;
    PartBook parts;

    const double t0 = trace.front().arrivalSeconds;
    std::vector<MachineEngine> machines;
    machines.reserve(n);
    for (const SimConfig& machine : cfg.machines)
        machines.emplace_back(&machine, t0);
    std::vector<uint64_t> inFlight(n, 0);

    // Fanned-out TwoStage queries led here whose dense join phase has
    // not been admitted yet: between the leader's own embedding part
    // finishing and the last remote part landing, the leader holds no
    // engine work and inFlight can read 0, yet it still owes the join
    // phase — a draining leader must not power off across that gap.
    std::vector<uint32_t> pendingJoins(n, 0);

    // The same committed joins in estimator currency: the seconds of
    // dense-phase work fanned-out queries already owe each leader.
    // Added at dispatch, released when the JoinPhase event queues the
    // work for real (cluster/admission.hh "second visit" accounting).
    std::vector<double> pendingJoinCost(n, 0.0);

    // Fault-injection state. When the plan is disabled every vector
    // stays at its identity value and no new branch is taken, so the
    // run is bitwise-identical to the fault-free driver.
    const bool faultsOn = cfg.faults.enabled();
    std::vector<uint8_t> crashed(n, 0);
    std::vector<int> downDepth(n, 0);
    std::vector<int> grayDepth(n, 0);
    std::vector<int> netDepth(n, 0);
    std::vector<double> netFactor(n, 1.0);
    std::vector<uint32_t> engineEpoch(n, 0);
    std::vector<uint64_t> lostBuf;
    // Engines advanced by a crash may run ahead of lastEventTime; the
    // final utilization advance must not move their clocks backwards.
    double lastFaultAdvance = t0;
    // Dispatched queries that ended without completing (killed, lost):
    // the control loop's outstanding-work signal must not count them
    // forever.
    uint64_t endedDispatches = 0;
    std::vector<FaultEvent> faultSchedule;
    if (faultsOn)
        faultSchedule = buildFaultSchedule(
            cfg.faults, static_cast<uint32_t>(n), t0,
            trace.back().arrivalSeconds);

    // ----------------------------------------------- elastic state
    std::vector<MState> state(n, MState::Off);
    std::vector<double> poweredSince(n, 0.0);
    std::vector<double> acceptingSince(n, 0.0);
    std::vector<uint64_t> upEpoch(n, 0);
    const size_t initial = spec_.initialMachines == 0
        ? n
        : spec_.initialMachines;
    for (size_t m = 0; m < initial; m++) {
        state[m] = MState::Accepting;
        poweredSince[m] = t0;
        acceptingSince[m] = t0;
    }
    size_t acceptingCount = initial;

    EventQueue events;
    size_t total_cores = 0;
    for (const SimConfig& machine : cfg.machines)
        total_cores += machine.cpu.platform().cores;
    events.reserve(std::min(trace.size(), total_cores + 256));
    std::vector<EngineEvent> scheduled;
    scheduled.reserve(256);
    for (size_t i = 0; i < faultSchedule.size(); i++)
        events.push(faultSchedule[i].time, SimEvent::Kind::Fault,
                    faultSchedule[i].machine, i);

    ElasticView view(cfg.machines, machines, inFlight, state,
                     acceptingCount, pendingJoinCost);
    // Overload control: only constructed when enabled, so the disabled
    // path is the historical driver plus one boolean test per arrival.
    std::optional<AdmissionController> admission;
    if (cfg.overload.enabled()) {
        // A sharded tier serves roughly 1/N of a query's embedding
        // work per machine; tell the estimator so heavy queries are
        // not priced as if one machine ran the whole model.
        const double share = cfg.sharding
            ? 1.0 / static_cast<double>(cfg.machines.size())
            : 1.0;
        admission.emplace(cfg.overload, cfg.machines, share,
                          cfg.network, cfg.join);
    }
    const bool trackJoinCost =
        admission.has_value() && cfg.join == JoinModel::TwoStage;
    // Per-class accounting rides with deadline/goodput accounting.
    if (cfg.overload.enabled() && cfg.overload.deadlineSeconds > 0.0)
        result.overload.perClass.resize(cfg.overload.priorityClasses);
    auto class_stats = [&](uint32_t cls) -> ClassOverloadStats* {
        return result.overload.perClass.empty()
            ? nullptr
            : &result.overload.perClass[cls];
    };
    MeasuredSpan span;
    double lastEventTime = t0;

    if (obs_) {
        obs_->onRunStart(t0);
        router->attachObserver(obs_);
    }

    // --------------------------------------- window signal tracking
    SampleStats windowLat;
    uint64_t windowArrivals = 0;
    uint64_t windowDrops = 0;
    double windowStart = t0;
    std::vector<double> windowBusyStart(n, 0.0);

    auto cores_of = [&](size_t m) {
        return static_cast<double>(cfg.machines[m].cpu.platform().cores);
    };

    auto count_state = [&](MState s) {
        size_t count = 0;
        for (size_t m = 0; m < n; m++)
            count += state[m] == s ? 1 : 0;
        return count;
    };

    size_t serving_now = initial;
    result.minServingMachines = serving_now;
    result.maxServingMachines = serving_now;

    auto power_off = [&](size_t m, double now) {
        result.poweredSecondsPerMachine[m] += now - poweredSince[m];
        state[m] = MState::Off;
    };

    /** A draining machine with no remaining work powers off now. */
    auto try_power_off_drained = [&](size_t m, double now) {
        if (state[m] == MState::Draining && inFlight[m] == 0 &&
            pendingJoins[m] == 0 && machines[m].idle())
            power_off(m, now);
    };

    /**
     * Shard re-validation for removal: machine @p m may only leave
     * the accepting set if every table it holds keeps a replica on
     * another machine that is still accepting — otherwise a query
     * touching that table could no longer be routed.
     */
    auto can_drain = [&](size_t m) {
        if (!cfg.sharding.has_value())
            return true;
        const ShardPlacement& placement = cfg.sharding->placement;
        for (uint32_t t = 0;
             t < static_cast<uint32_t>(placement.numTables()); t++) {
            if (!placement.holds(m, t))
                continue;
            bool covered = false;
            for (size_t other = 0; other < n && !covered; other++) {
                covered = other != m &&
                    state[other] == MState::Accepting &&
                    placement.holds(other, t);
            }
            if (!covered)
                return false;
        }
        return true;
    };

    /**
     * Move the tier toward @p target serving machines (accepting +
     * warming). Growth cancels drains first (those machines are still
     * warm), then powers on cold machines through the warm-up delay;
     * shrink cancels warm-ups first (they hold no work), then drains
     * accepting machines newest-first, skipping any the placement
     * re-validation refuses. Returns the serving count achieved.
     */
    auto apply_target = [&](size_t target, double now) {
        size_t accepting = count_state(MState::Accepting);
        size_t serving = accepting + count_state(MState::Warming);
        if (target > serving) {
            size_t need = target - serving;
            for (size_t m = n; m-- > 0 && need > 0;) {
                if (state[m] == MState::Draining) {
                    state[m] = MState::Accepting;
                    acceptingSince[m] = now;
                    acceptingCount++;
                    need--;
                    serving++;
                    accepting++;
                }
            }
            for (size_t m = 0; m < n && need > 0; m++) {
                // A crashed machine is Off but unavailable until its
                // scheduled repair clears the flag.
                if (state[m] != MState::Off || crashed[m])
                    continue;
                poweredSince[m] = now;
                need--;
                serving++;
                if (spec_.warmupDelaySeconds > 0.0) {
                    state[m] = MState::Warming;
                    upEpoch[m]++;
                    events.push(now + spec_.warmupDelaySeconds,
                                SimEvent::Kind::MachineUp,
                                static_cast<uint32_t>(m), upEpoch[m]);
                } else {
                    state[m] = MState::Accepting;
                    acceptingSince[m] = now;
                    acceptingCount++;
                    accepting++;
                }
            }
        } else if (target < serving) {
            size_t excess = serving - target;
            for (size_t m = n; m-- > 0 && excess > 0;) {
                if (state[m] == MState::Warming) {
                    power_off(m, now);    // accepted nothing yet
                    excess--;
                    serving--;
                }
            }
            for (size_t m = n; m-- > 0 && excess > 0;) {
                if (state[m] != MState::Accepting || accepting <= 1)
                    continue;
                if (!can_drain(m))
                    continue;    // would orphan a shard: refused
                state[m] = MState::Draining;
                acceptingCount--;
                accepting--;
                serving--;
                excess--;
                try_power_off_drained(m, now);
            }
        }
        return serving;
    };

    // ------------------------------------------------ part plumbing
    auto admit_part = [&](uint64_t part_idx, const PartSpec& spec,
                          double now) {
        const uint32_t m = parts[part_idx].machine;
        scheduled.clear();
        machines[m].admit(spec, now, scheduled);
        events.pushAll(scheduled, m, engineEpoch[m]);
    };

    auto start_part = [&](uint64_t part_idx, double now) {
        if (obs_)
            parts[part_idx].start = now;
        const PartRec& part = parts[part_idx];
        const QueryState& q = queries[part.queryIdx];
        PartSpec spec;
        spec.partIdx = part_idx;
        spec.samples = q.size;
        spec.model = q.model;
        switch (part.kind) {
          case PartRec::Kind::Whole:
            break;
          case PartRec::Kind::FanEmb:
            spec.embFraction = part.embFraction;
            spec.leader = cfg.join == JoinModel::Optimistic &&
                part.leader;
            spec.whole = false;
            break;
          case PartRec::Kind::FanDense:
            spec.embFraction = 0.0;
            spec.leader = true;
            spec.whole = false;
            break;
        }
        admit_part(part_idx, spec, now);
    };

    auto complete_query = [&](uint64_t query_idx) {
        QueryState& q = queries[query_idx];
        q.settled = true;
        result.numCompleted++;
        result.perMachine[q.machine].queriesCompleted++;
        const double latency = q.joinTime - q.arrival;
        windowLat.add(latency);
        if (q.measured) {
            result.fleetLatencySeconds.add(latency);
            result.perMachine[q.machine].latencySeconds.add(latency);
            span.onCompletion(q.joinTime);
            if (cfg.overload.deadlineSeconds > 0.0) {
                result.overload.measuredCompleted++;
                ClassOverloadStats* cs = class_stats(q.cls);
                if (cs)
                    cs->measuredCompleted++;
                if (latency <= cfg.overload.deadlineSeconds) {
                    result.overload.completedWithinDeadline++;
                    result.overload.qualityWeight += q.quality;
                    if (cs) {
                        cs->completedWithinDeadline++;
                        cs->qualityWeight += q.quality;
                    }
                }
            }
        }
        lastEventTime = std::max(lastEventTime, q.joinTime);
        if (obs_) {
            const double back = cfg.network.oneWaySeconds(
                static_cast<double>(q.size) *
                cfg.network.responseBytesPerSample);
            obs_->onQueryComplete(query_idx, q.joinTime, back);
        }
    };

    auto finish_part = [&](uint64_t part_idx, double now, bool gpu) {
        PartRec& part = parts[part_idx];
        part.done = true;
        if (obs_) {
            obs_->onPartDone(
                part.queryIdx, part.machine, stageOf(part.kind),
                part.leader, gpu, part.start,
                machines[part.machine].lastFinishedFirstServiceStart(),
                now);
        }
        drs_assert(inFlight[part.machine] > 0,
                   "completion with nothing in flight");
        inFlight[part.machine]--;
        QueryState& q = queries[part.queryIdx];

        if (faultsOn && (part.gen != q.gen || q.dead)) {
            // A completion of a killed dispatch is a ghost: the query
            // already failed over (or was lost) and its books were
            // settled at the kill.
            try_power_off_drained(part.machine, now);
            return;
        }

        if (part.kind == PartRec::Kind::FanEmb &&
            cfg.join == JoinModel::TwoStage) {
            // A degraded NIC on either end stretches the pooled-
            // embedding hop to the leader.
            const double to_leader = part.leader
                ? 0.0
                : cfg.network.oneWaySeconds(
                      static_cast<double>(q.size) *
                      cfg.network.embeddingBytesPerSample) *
                      std::max(netFactor[part.machine],
                               netFactor[q.machine]);
            q.leaderReady = std::max(q.leaderReady, now + to_leader);
            drs_assert(q.partsLeft > 0, "query with no pending parts");
            if (--q.partsLeft > 0) {
                try_power_off_drained(part.machine, now);
                return;
            }
            q.partsLeft = 1;
            const uint64_t dense_idx = parts.push(
                {.queryIdx = part.queryIdx, .machine = q.machine,
                 .kind = PartRec::Kind::FanDense, .embFraction = 0.0,
                 .gen = q.gen});
            q.partsEnd = dense_idx + 1;
            // The leader may already be draining; its join phase is
            // in-flight work and still runs there.
            drs_assert(pendingJoins[q.machine] > 0,
                       "join phase with no pending leadership");
            pendingJoins[q.machine]--;
            q.joinLeadership = false;
            inFlight[q.machine]++;
            result.perMachine[q.machine].joinPhases++;
            events.push(q.leaderReady, SimEvent::Kind::JoinPhase,
                        q.machine, dense_idx);
            try_power_off_drained(part.machine, now);
            return;
        }

        const double back = cfg.network.oneWaySeconds(
            static_cast<double>(q.size) *
            cfg.network.responseBytesPerSample) *
            netFactor[part.machine];
        q.joinTime = std::max(q.joinTime, now + back);
        drs_assert(q.partsLeft > 0, "query with no pending parts");
        if (--q.partsLeft == 0)
            complete_query(part.queryIdx);
        try_power_off_drained(part.machine, now);
    };

    // A failure destroyed query @p idx's current dispatch. Release
    // its committed join books, then either fail over (schedule a
    // re-present with exponential client backoff) or record the final
    // loss. Callers guarantee the query is live (not dead, current
    // generation); @p dispatched says whether the dying presentation
    // was routed (an unroutable presentation never was).
    auto fail_query = [&](uint64_t idx, double now, bool dispatched) {
        QueryState& q = queries[idx];
        q.dead = true;
        if (dispatched)
            endedDispatches++;
        if (q.joinCommitted) {
            pendingJoinCost[q.machine] -=
                machines[q.machine].joinPhaseCostSeconds(q.size, q.model);
            q.joinCommitted = false;
        }
        if (q.joinLeadership) {
            drs_assert(pendingJoins[q.machine] > 0,
                       "join leadership with no pending join");
            pendingJoins[q.machine]--;
            q.joinLeadership = false;
            try_power_off_drained(q.machine, now);
        }
        if (q.failovers < cfg.faults.maxFailovers) {
            q.failovers++;
            result.faults.failovers++;
            const double delay = cfg.faults.failoverDelaySeconds *
                static_cast<double>(
                    1u << std::min<uint32_t>(q.failovers - 1, 16));
            events.push(now + delay, SimEvent::Kind::Retry, 0, idx);
            if (obs_)
                obs_->onQueryFailover(idx, now, q.failovers, delay);
        } else {
            q.settled = true;
            result.faults.lost++;
            result.faults.lostQueries.push_back(idx);
            if (idx >= warmup)
                span.onArrival(trace[idx].arrivalSeconds);
            if (obs_)
                obs_->onQueryLost(idx, now);
        }
    };

    // A live part was destroyed (its machine crashed, or its forwarded
    // RPC landed on a dead or powered-off machine). Decide the owning
    // query's fate.
    auto lost_part_fate = [&](uint64_t part_idx, double now) {
        PartRec& part = parts[part_idx];
        part.cancelled = true;
        drs_assert(inFlight[part.machine] > 0,
                   "lost part with nothing in flight");
        inFlight[part.machine]--;
        result.faults.partsLost++;
        QueryState& q = queries[part.queryIdx];
        if (part.gen != q.gen || q.dead)
            return;    // that dispatch already died
        fail_query(part.queryIdx, now, true);
    };

    // Fail-stop crash of machine @p m: a forced, instant power-off.
    // Queued and in-flight work dies with the engine; the machine
    // cannot be re-powered until its scheduled repair. Depth-counted
    // so overlapping windows (random + correlated) stay idempotent.
    auto on_crash = [&](uint32_t m, double now) {
        if (downDepth[m]++ > 0)
            return;
        crashed[m] = 1;
        result.faults.crashes++;
        engineEpoch[m]++;
        if (obs_)
            obs_->onMachineDown(m, now);
        if (state[m] == MState::Off)
            return;    // nothing powered to kill
        if (state[m] == MState::Accepting)
            acceptingCount--;
        if (state[m] != MState::Warming) {
            lastFaultAdvance = std::max(lastFaultAdvance, now);
            lostBuf.clear();
            machines[m].crash(now, lostBuf);
            for (uint64_t lost_part : lostBuf)
                lost_part_fate(lost_part, now);
        }
        power_off(m, now);
    };

    auto on_recover = [&](uint32_t m, double now) {
        drs_assert(downDepth[m] > 0, "recovery of a machine never down");
        if (--downDepth[m] > 0)
            return;
        crashed[m] = 0;
        result.faults.recoveries++;
        if (obs_)
            obs_->onMachineUp(m, now);
        // The machine stays Off; the scaling policy re-powers it
        // through the normal warm-up lifecycle when capacity is short.
    };

    // ------------------------------------------------- control loop
    auto control_tick = [&](double now) {
        for (size_t m = 0; m < n; m++)
            machines[m].advanceTo(now);

        // Utilization over *accepting* capacity only: draining and
        // warming machines would dilute the signal right after a
        // scale event (ScalingSignals::windowUtilization).
        double busy = 0.0;
        double capacity = 0.0;
        for (size_t m = 0; m < n; m++) {
            const double delta =
                machines[m].busyCoreSeconds() - windowBusyStart[m];
            windowBusyStart[m] = machines[m].busyCoreSeconds();
            if (state[m] == MState::Accepting) {
                busy += delta;
                capacity +=
                    (now - std::max(acceptingSince[m], windowStart)) *
                    cores_of(m);
            }
        }

        ScalingSignals sig;
        sig.timeSeconds = now;
        sig.windowSeconds = now - windowStart;
        sig.windowTailMs = windowLat.count() > 0
            ? windowLat.percentile(spec_.percentile) * 1e3
            : -1.0;
        sig.windowUtilization = capacity > 0.0
            ? std::min(busy / capacity, 1.0)
            : 0.0;
        sig.arrivalQps = sig.windowSeconds > 0.0
            ? static_cast<double>(windowArrivals) / sig.windowSeconds
            : 0.0;
        sig.windowDrops = windowDrops;
        drs_assert(count_state(MState::Accepting) == acceptingCount,
                   "accepting counter drifted from machine states");
        sig.acceptingMachines = acceptingCount;
        sig.warmingMachines = count_state(MState::Warming);
        sig.drainingMachines = count_state(MState::Draining);
        sig.maxMachines = n;

        // A window is violating when its observed tail exceeds the
        // SLA — or when nothing completed at all while queries were
        // outstanding: a stalled tier must score as the worst window,
        // not a perfect one. Dispatches a failure killed are no longer
        // outstanding — their fate is settled.
        const uint64_t outstanding =
            result.numDispatched - result.numCompleted - endedDispatches;
        const bool violation =
            (windowLat.count() > 0 && sig.windowTailMs > spec_.slaMs) ||
            (windowLat.count() == 0 && outstanding > 0);
        if (violation)
            result.slaViolationSeconds += sig.windowSeconds;

        const size_t serving_before =
            sig.acceptingMachines + sig.warmingMachines;
        const size_t target =
            clampTarget(policy.targetMachines(sig), 1, n);
        const size_t granted = apply_target(target, now);
        if (target != serving_before || granted != serving_before) {
            result.scaleEvents.push_back(
                {now, serving_before, target, granted});
            if (obs_)
                obs_->onScaleEvent(now, serving_before, target, granted);
        }
        serving_now = granted;
        result.minServingMachines =
            std::min(result.minServingMachines, serving_now);
        result.maxServingMachines =
            std::max(result.maxServingMachines, serving_now);

        AutoscaleWindow row;
        row.endSeconds = now;
        row.tailMs = sig.windowTailMs;
        row.utilization = sig.windowUtilization;
        row.arrivalQps = sig.arrivalQps;
        row.servingMachines = serving_now;
        row.poweredMachines = serving_now + count_state(MState::Draining);
        row.drops = windowDrops;
        row.slaViolation = violation;
        result.timeline.push_back(row);

        if (obs_ && obs_->metricsOn()) {
            obs::MetricRegistry& reg = obs_->metrics();
            reg.gauge("machines").set(
                static_cast<double>(row.servingMachines));
            reg.gauge("accepting_machines").set(
                static_cast<double>(acceptingCount));
            reg.gauge("warming_machines").set(static_cast<double>(
                count_state(MState::Warming)));
            reg.gauge("draining_machines").set(static_cast<double>(
                count_state(MState::Draining)));
            reg.gauge("powered_machines").set(
                static_cast<double>(row.poweredMachines));
            reg.gauge("utilization").set(row.utilization);
            reg.gauge("window_p99_ms").set(row.tailMs);
            reg.gauge("arrival_qps").set(row.arrivalQps);
            reg.gauge("window_drops").set(
                static_cast<double>(windowDrops));
            size_t queued_total = 0;
            size_t queued_max = 0;
            for (size_t m = 0; m < n; m++) {
                const size_t queued = machines[m].queuedWork();
                queued_total += queued;
                queued_max = std::max(queued_max, queued);
            }
            reg.gauge("queue_depth_total").set(
                static_cast<double>(queued_total));
            reg.gauge("queue_depth_max").set(
                static_cast<double>(queued_max));
            obs::Counter& violations =
                reg.counter("sla_violation_windows");
            if (violation)
                violations.add();
        }
        if (obs_)
            obs_->snapshot(now);

        windowLat = SampleStats{};
        windowArrivals = 0;
        windowDrops = 0;
        windowStart = now;
    };

    events.push(t0 + spec_.controlIntervalSeconds,
                SimEvent::Kind::Control, 0, 0);

    // Present query @p idx to the router at @p now — its trace
    // arrival, or a client retry after a shed (see the cluster_sim
    // driver for the semantics; every refusal counts into the scaling
    // window's drop signal, retried or final).
    auto present = [&](uint64_t idx, double now) {
        const Query& in = trace[idx];
        QueryState& q = queries[idx];
        drs_assert(in.model == 0 || in.model < cfg.machines[0].numModels(),
                   "query of a model the elastic tier does not serve");
        q.model = in.model;
        q.cls = cfg.overload.priorityClasses > 1
            ? std::min(in.priorityClass, cfg.overload.priorityClasses - 1)
            : 0;
        ClassOverloadStats* cs = class_stats(q.cls);
        if (cs && q.attempt == 0 && q.failovers == 0)
            cs->offered++;

        Query served = in;
        double quality = 1.0;
        if (admission) {
            const AdmissionDecision verdict = admission->decide(in, view);
            if (!verdict.admit) {
                // Shed at the router: nothing reaches a machine.
                // Measured drops still open the span so goodput is
                // charged against real offered time.
                lastEventTime = std::max(lastEventTime, now);
                if (idx >= warmup)
                    span.onArrival(in.arrivalSeconds);
                result.overload.dropped++;
                if (cs)
                    cs->dropped++;
                windowDrops++;
                if (verdict.retryable &&
                    q.attempt < cfg.overload.maxRetries) {
                    const double delay = retryDelaySeconds(
                        cfg.overload.retryBackoffSeconds,
                        cfg.overload.retryBackoffFactor,
                        cfg.overload.retryJitterFraction,
                        verdict.retryAfterSeconds, in.id, q.attempt);
                    q.attempt++;
                    result.overload.retried++;
                    if (cs)
                        cs->retried++;
                    events.push(now + delay, SimEvent::Kind::Retry, 0,
                                idx);
                    if (obs_)
                        obs_->onQueryRetry(idx, now, q.attempt, delay);
                } else {
                    q.settled = true;
                    result.overload.droppedFinal++;
                    if (cs)
                        cs->droppedFinal++;
                    result.overload.droppedQueries.push_back(idx);
                    if (obs_)
                        obs_->onQueryDrop(idx, now, in.size);
                }
                return;
            }
            if (verdict.servedSize < in.size)
                served.size = verdict.servedSize;
            quality = verdict.quality;
        }

        // Route before committing the admission books: under fault
        // injection the query may be unservable (no accepting replica
        // set covers its tables), which is neither an admission nor a
        // drop — admission never saw a servable query.
        std::vector<ShardTarget> plan;
        if (!faultsOn || acceptingCount > 0)
            plan = router->routeParts(served, view);
        if (plan.empty()) {
            drs_assert(faultsOn, "policy returned no targets");
            lastEventTime = std::max(lastEventTime, now);
            if (idx >= warmup)
                span.onArrival(in.arrivalSeconds);
            result.faults.unroutable++;
            fail_query(idx, now, false);
            return;
        }
        if (admission && served.size < in.size) {
            result.overload.degraded++;
            if (cs)
                cs->degraded++;
            result.overload.degradedQueries.push_back(
                {idx, in.size, served.size});
            if (obs_)
                obs_->onQueryDegrade(idx, now, in.size, served.size);
        }
        result.overload.admitted++;
        if (cs)
            cs->admitted++;
        lastEventTime = std::max(lastEventTime, now);

        q.arrival = in.arrivalSeconds;
        q.size = served.size;
        q.partsLeft = static_cast<uint32_t>(plan.size());
        q.joinTime = now;
        q.leaderReady = now;
        q.quality = quality;
        q.measured = idx >= warmup;
        q.gen++;
        q.dead = false;
        if (q.measured)
            span.onArrival(in.arrivalSeconds);

        result.numDispatched++;
        const double forward = cfg.network.oneWaySeconds(
            static_cast<double>(served.size) *
            cfg.network.requestBytesPerSample);
        if (obs_)
            obs_->onQueryDispatch(idx, now, served.size, plan.size(),
                                  forward, q.measured);

        size_t leaders = 0;
        for (const ShardTarget& target : plan) {
            drs_assert(target.machine < machines.size(),
                       "policy routed out of range");
            const uint32_t m = target.machine;
            drs_assert(state[m] == MState::Accepting,
                       "policy routed to a non-accepting machine");
            machines[m].advanceTo(now);
            inFlight[m]++;
            if (target.leader) {
                leaders++;
                q.machine = m;
                q.leaderEpoch = engineEpoch[m];
                result.perMachine[m].queriesDispatched++;
            } else {
                result.perMachine[m].remoteParts++;
            }

            const uint64_t part_idx = parts.push(
                {.queryIdx = idx, .machine = m,
                 .kind = plan.size() == 1 ? PartRec::Kind::Whole
                                          : PartRec::Kind::FanEmb,
                 .embFraction = target.embFraction,
                 .leader = target.leader, .gen = q.gen});
            result.numParts++;
            if (forward > 0.0) {
                events.push(now + forward * netFactor[m],
                            SimEvent::Kind::PartArrival, m, part_idx);
            } else {
                start_part(part_idx, now);
            }
        }
        drs_assert(leaders == 1, "plan needs exactly one leader");
        q.partsEnd = parts.nextId();
        if (plan.size() > 1 && cfg.join == JoinModel::TwoStage) {
            pendingJoins[q.machine]++;
            q.joinLeadership = true;
        }
        // Commit the leader's future dense phase to the estimator's
        // second-order backlog (released exactly once, at the
        // JoinPhase event or when a failure kills the dispatch).
        if (trackJoinCost && plan.size() > 1) {
            pendingJoinCost[q.machine] +=
                machines[q.machine].joinPhaseCostSeconds(served.size,
                                                         q.model);
            q.joinCommitted = true;
        }
    };

    // A part leaves the book once it is terminal and its dispatch is
    // over (see PartBook::retire).
    auto dispatch_over = [&](const PartRec& p) {
        const QueryState& q = queries[p.queryIdx];
        return p.gen != q.gen || q.dead || q.partsLeft == 0;
    };
    // Parts first: a query leaves the book only after its parts (see
    // QueryBook::retire); the observer drops its span records with it.
    auto retire_books = [&] {
        parts.retire(dispatch_over);
        if (queries.retire(parts) && obs_)
            obs_->onQueriesRetired(queries.lowId());
    };

    size_t nextArrival = 0;
    while (nextArrival < trace.size() || !events.empty()) {
        retire_books();
        const bool haveArrival = nextArrival < trace.size();
        const bool takeArrival = haveArrival &&
            (events.empty() ||
             trace[nextArrival].arrivalSeconds <= events.top().time);

        if (takeArrival) {
            const Query& in = trace[nextArrival];
            drs_assert(nextArrival == 0 ||
                           in.arrivalSeconds >=
                               trace[nextArrival - 1].arrivalSeconds,
                       "trace must be sorted by arrival");
            const uint64_t query_id = queries.push({});
            drs_assert(query_id == nextArrival,
                       "query ids must follow the trace");
            result.overload.offered++;
            windowArrivals++;
            present(nextArrival, in.arrivalSeconds);
            nextArrival++;
            continue;
        }

        const SimEvent ev = events.pop();

        // Fault transitions are environment, not traffic: they are
        // handled before the generic time update so they never stretch
        // the measured span or the utilization windows.
        if (ev.kind == SimEvent::Kind::Fault) {
            const FaultEvent& fe = faultSchedule[ev.partIdx];
            switch (fe.kind) {
              case FaultEvent::Kind::Crash:
                on_crash(fe.machine, ev.time);
                break;
              case FaultEvent::Kind::Recover:
                on_recover(fe.machine, ev.time);
                break;
              case FaultEvent::Kind::GrayStart:
                // Depth-counted: overlapping windows extend, the first
                // open sets the factor, the last close clears it.
                if (grayDepth[fe.machine]++ == 0) {
                    machines[fe.machine].setServiceFactor(fe.factor);
                    result.faults.grayWindows++;
                }
                break;
              case FaultEvent::Kind::GrayEnd:
                if (--grayDepth[fe.machine] == 0)
                    machines[fe.machine].setServiceFactor(1.0);
                break;
              case FaultEvent::Kind::NetDegradeStart:
                if (netDepth[fe.machine]++ == 0) {
                    netFactor[fe.machine] = fe.factor;
                    result.faults.netDegradeWindows++;
                }
                break;
              case FaultEvent::Kind::NetDegradeEnd:
                if (--netDepth[fe.machine] == 0)
                    netFactor[fe.machine] = 1.0;
                break;
            }
            continue;
        }
        // A completion stamped by a dead engine incarnation is a
        // ghost: the crash already accounted for its part.
        if (faultsOn && ev.epoch != engineEpoch[ev.machine] &&
            (ev.kind == SimEvent::Kind::CpuRequest ||
             ev.kind == SimEvent::Kind::GpuQuery))
            continue;

        lastEventTime = std::max(lastEventTime, ev.time);

        switch (ev.kind) {
          case SimEvent::Kind::Control:
            control_tick(ev.time);
            // Stop ticking once the trace is exhausted: the remaining
            // events only drain in-flight work.
            if (nextArrival < trace.size())
                events.push(ev.time + spec_.controlIntervalSeconds,
                            SimEvent::Kind::Control, 0, 0);
            break;

          case SimEvent::Kind::MachineUp:
            // Stale warm-ups (cancelled, possibly re-ordered) carry
            // an old epoch and are ignored.
            if (state[ev.machine] == MState::Warming &&
                ev.partIdx == upEpoch[ev.machine]) {
                state[ev.machine] = MState::Accepting;
                acceptingSince[ev.machine] = ev.time;
                acceptingCount++;
            }
            break;

          case SimEvent::Kind::PartArrival:
            if (faultsOn) {
                PartRec& part = parts[ev.partIdx];
                const QueryState& q = queries[part.queryIdx];
                if (part.gen != q.gen || q.dead) {
                    // The dispatch died while this RPC was in flight;
                    // the client cancelled it.
                    part.cancelled = true;
                    drs_assert(inFlight[ev.machine] > 0,
                               "cancel with nothing in flight");
                    inFlight[ev.machine]--;
                    try_power_off_drained(ev.machine, ev.time);
                    break;
                }
                if (state[ev.machine] != MState::Accepting &&
                    state[ev.machine] != MState::Draining) {
                    // Forwarded onto a machine that crashed (or was
                    // force-powered-off) en route.
                    lost_part_fate(ev.partIdx, ev.time);
                    break;
                }
            }
            machines[ev.machine].advanceTo(ev.time);
            start_part(ev.partIdx, ev.time);
            break;

          case SimEvent::Kind::JoinPhase: {
            PartRec& part = parts[ev.partIdx];
            QueryState& q = queries[part.queryIdx];
            if (faultsOn && (part.gen != q.gen || q.dead)) {
                // Stale join of a killed dispatch — its committed
                // cost was already released at the kill.
                part.cancelled = true;
                drs_assert(inFlight[ev.machine] > 0,
                           "cancel with nothing in flight");
                inFlight[ev.machine]--;
                try_power_off_drained(ev.machine, ev.time);
                break;
            }
            // The committed phase becomes real queued work here; the
            // subtraction mirrors the addition at fan-out dispatch
            // exactly (identical joinPhaseCostSeconds inputs).
            if (q.joinCommitted) {
                pendingJoinCost[ev.machine] -=
                    machines[ev.machine].joinPhaseCostSeconds(q.size,
                                                              q.model);
                q.joinCommitted = false;
            }
            if (faultsOn && engineEpoch[q.machine] != q.leaderEpoch) {
                // The leader restarted since dispatch: the pooled
                // embeddings of this query died with it.
                part.cancelled = true;
                drs_assert(inFlight[ev.machine] > 0,
                           "cancel with nothing in flight");
                inFlight[ev.machine]--;
                fail_query(part.queryIdx, ev.time, true);
                try_power_off_drained(ev.machine, ev.time);
                break;
            }
            machines[ev.machine].advanceTo(ev.time);
            start_part(ev.partIdx, ev.time);
            break;
          }

          case SimEvent::Kind::Retry:
            // A client re-presents a shed or failed-over query after
            // its backoff.
            present(ev.partIdx, ev.time);
            break;

          case SimEvent::Kind::CpuRequest:
            machines[ev.machine].advanceTo(ev.time);
            scheduled.clear();
            if (machines[ev.machine].cpuRequestDone(ev.slot, ev.partIdx,
                                                    ev.time, scheduled))
                finish_part(ev.partIdx, ev.time, false);
            events.pushAll(scheduled, ev.machine,
                           engineEpoch[ev.machine]);
            break;

          case SimEvent::Kind::GpuQuery:
            machines[ev.machine].advanceTo(ev.time);
            scheduled.clear();
            machines[ev.machine].gpuQueryDone(ev.slot, ev.partIdx,
                                              ev.time, scheduled);
            finish_part(ev.partIdx, ev.time, true);
            events.pushAll(scheduled, ev.machine,
                           engineEpoch[ev.machine]);
            break;

          case SimEvent::Kind::Fault:
          case SimEvent::Kind::HedgeCheck:
            drs_panic("fault events are handled before the switch");
        }
    }

    // -------------------------------------------------- final books
    for (size_t m = 0; m < n; m++) {
        if (state[m] != MState::Off)
            power_off(m, lastEventTime);
    }

    retire_books();
    drs_assert(parts.live() == 0, "a part never reached a terminal state");
    drs_assert(queries.live() == 0, "a query never settled");
    result.peakLiveParts = parts.peakLive();
    result.peakLiveQueries = queries.peakLive();
    result.peakPartChunks = parts.chunksAllocated();
    result.peakQueryChunks = queries.chunksAllocated();
    result.numQueries = result.fleetLatencySeconds.count();
    result.offeredQps = traceOfferedQps(trace);
    result.spanSeconds = lastEventTime - t0;
    if (cfg.overload.deadlineSeconds > 0.0 && span.seconds() > 0.0) {
        result.overload.goodputQps =
            result.overload.qualityWeight / span.seconds();
        for (ClassOverloadStats& cs : result.overload.perClass)
            cs.goodputQps = cs.qualityWeight / span.seconds();
    }
    result.staticMachineSeconds =
        static_cast<double>(n) * result.spanSeconds;
    for (size_t m = 0; m < n; m++)
        result.machineSeconds += result.poweredSecondsPerMachine[m];

    // A crash may have advanced an engine past the last traffic event;
    // the final advance must never move a clock backwards. Busy time
    // cannot accrue on an idle machine, so the integrals are unchanged.
    const double finalAdvance = std::max(lastEventTime, lastFaultAdvance);
    for (size_t m = 0; m < n; m++) {
        machines[m].advanceTo(finalAdvance);
        MachineStats& stats = result.perMachine[m];
        stats.requestsDispatched = machines[m].requestsDispatched();
        stats.busyCoreSeconds = machines[m].busyCoreSeconds();
        stats.gpuBusySeconds = machines[m].gpuBusySeconds();
        const double powered = result.poweredSecondsPerMachine[m];
        if (powered > 0.0) {
            stats.cpuUtilization =
                stats.busyCoreSeconds / (powered * cores_of(m));
            stats.gpuUtilization = stats.gpuBusySeconds / powered;
        }
    }

    // The three-way conservation algebra holds exactly on every run —
    // chaos or not — at any thread count.
    assertFaultConservation(result.overload, result.faults,
                            result.numDispatched, result.numCompleted,
                            trace.size());
    return result;
}

AutoscaleResult
Autoscaler::run(const QueryTrace& trace,
                const ScalingPolicySpec& policy_spec) const
{
    const std::unique_ptr<ScalingPolicy> policy =
        makeScalingPolicy(policy_spec, spec_);
    return run(trace, *policy);
}

} // namespace deeprecsys
