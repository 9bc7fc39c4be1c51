#include "autoscaler.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "cluster/cluster_loop.hh"
#include "obs/observer.hh"
#include "sim/rate_search.hh"

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

// The reactive policy's fixed shape.
/** Utilization the tier is steered toward when resizing. */
constexpr double kTargetUtilization = 0.65;

/** Scale up when windowed tail latency exceeds this fraction of the
 *  SLA, regardless of utilization. */
constexpr double kSlaHeadroomFraction = 0.80;

/**
 * Knee ratchet on scale-down. The policy remembers the highest
 * per-accepting-machine arrival rate it has ever served with a calm
 * tail (a measured lower bound on per-machine capacity) and refuses
 * sheds whose projected per-machine rate exceeds that high-water mark
 * by more than this factor. Near the SLA knee, utilization and tail
 * latency both still look calm one machine above the melt-down point
 * — only the served-rate history reveals how little headroom is left.
 * 1.10 allows ~10% of unexplored headroom per shed, so the mark
 * ratchets down a machine at a time instead of leaping past the knee.
 */
constexpr double kShedRateHeadroom = 1.10;

/** At most this many machines drained per control tick, so a
 *  measurement dip cannot collapse the tier. */
constexpr size_t kMaxStepDown = 1;

/**
 * Cap on *utilization-triggered* growth per tick: a rising ramp is
 * tracked in steady steps instead of proportional jumps whose
 * overshoot is then slowly shed again (a machine-hours sawtooth).
 * Tail-triggered growth (windowed tail past kSlaHeadroomFraction) is
 * never capped — that is the emergency response.
 */
constexpr size_t kMaxStepUp = 2;

/** The predictive policy's fractional machine headroom on top of the
 *  prediction. */
constexpr double kSafetyMargin = 0.12;

/** Clamp a policy's ask to what the tier can actually field. The
 *  floor never passes the ceiling: std::clamp's order is undefined
 *  then (makeScalingPolicy refuses such a floor). */
size_t
clampTarget(size_t desired, size_t min_machines, size_t max_machines)
{
    const size_t floor =
        std::min(std::max<size_t>(1, min_machines), max_machines);
    return std::clamp(desired, floor, max_machines);
}

/** The static peak plan as a policy: the comparison baseline. It
 *  always asks for the full tier. */
class StaticPolicy final : public ScalingPolicy
{
  public:
    size_t
    targetMachines(const ScalingSignals& signals) override
    {
        return signals.maxMachines;
    }

    ScalingPolicyKind kind() const override
    {
        return ScalingPolicyKind::Static;
    }
};

/**
 * Measurement-driven feedback: steer the accepting-capacity
 * utilization into [downUtilization, upUtilization], sizing jumps so
 * utilization lands near kTargetUtilization, with windowed tail
 * latency as an override in both directions — a hot tail scales up
 * even when utilization looks fine (the queueing knee precedes core
 * saturation), and an elevated tail blocks scale-down even when
 * utilization looks low (near the knee, utilization is violently
 * nonlinear in offered rate, so it alone cannot be trusted). A
 * second shed gate ratchets on the measured capacity high-water mark
 * (kShedRateHeadroom). Tail-driven scale-up jumps
 * proportionally (emergency); utilization-driven growth steps by
 * kMaxStepUp, and scale-down sheds at most kMaxStepDown per tick so a
 * measurement dip cannot collapse the tier.
 */
class ReactivePolicy final : public ScalingPolicy
{
  public:
    ReactivePolicy(const ScalingPolicySpec& spec, double sla_ms)
        : spec_(spec), slaMs(sla_ms)
    {
        if (!(spec_.downUtilization <= kTargetUtilization &&
              kTargetUtilization <= spec_.upUtilization))
            drs_fatal("utilization band must bracket the target");
        // Out of (0, 1] the tail can never be calm in a window with
        // completions, which silently disables scale-down.
        if (!(spec_.downLatencyFraction > 0.0 &&
              spec_.downLatencyFraction <= 1.0))
            drs_fatal("scale-down latency fraction ",
                      spec_.downLatencyFraction, " is not in (0, 1]");
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
             signals.windowTailMs > kSlaHeadroomFraction * slaMs);

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
                kTargetUtilization));
            desired = std::max(desired, serving + 1);
            if (!hot_tail)
                desired = std::min(desired, serving + kMaxStepUp);
        } else if (util < spec_.downUtilization && calm_tail &&
                   serving > 1) {
            const size_t step =
                std::min(kMaxStepDown, serving - 1);
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
                    highWaterQps * kShedRateHeadroom;
            if (projected_util < spec_.upUtilization && rate_safe) {
                const size_t want = static_cast<size_t>(std::ceil(
                    static_cast<double>(serving) * util /
                    kTargetUtilization));
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
 * rate the diurnal profile predicts one look-ahead out — warm-up
 * delay plus control interval, so machines ordered now are accepting
 * when the predicted rate materializes — anchored to the static plan
 * (machinesAtPeak machines carry the peak rate), plus a safety margin
 * for the stochastic arrival/size draws around the profile's mean.
 */
class PredictivePolicy final : public ScalingPolicy
{
  public:
    PredictivePolicy(const ScalingPolicySpec& spec,
                     const AutoscaleSpec& run)
        : spec_(spec), profile(run.profile), meanQps(run.meanQps),
          machinesAtPeak(run.machinesAtPeak)
    {
        if (!(meanQps > 0.0))
            drs_fatal("predictive scaling needs AutoscaleSpec::meanQps");
        if (machinesAtPeak < 1)
            drs_fatal(
                "predictive scaling needs AutoscaleSpec::machinesAtPeak");
        peakQps = meanQps * (1.0 + profile.swingAmplitude());
        lead = run.warmupDelaySeconds + run.controlIntervalSeconds;
    }

    size_t
    targetMachines(const ScalingSignals& signals) override
    {
        const double predicted =
            meanQps * profile.multiplier(signals.timeSeconds + lead);
        const size_t desired = static_cast<size_t>(std::ceil(
            static_cast<double>(machinesAtPeak) * (predicted / peakQps) *
            (1.0 + kSafetyMargin)));
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
 * The elastic tier's membership: the machine lifecycle (warm-up,
 * drain, power-off), the power books, and the control tick at which
 * the scaling policy resizes the tier from windowed signals.
 */
class ElasticMembership final : public Membership
{
  public:
    ElasticMembership(const AutoscaleSpec& spec, ScalingPolicy& policy,
                      AutoscaleResult& result)
        : spec_(spec), policy_(policy), result_(result),
          n(spec.cluster.machines.size()), state(n, MState::Off),
          poweredSince(n, 0.0), acceptingSince(n, 0.0), upEpoch(n, 0),
          windowBusyStart(n, 0.0)
    {
    }

    bool queryBooks() const override { return false; }

    void
    start(ClusterLoop& loop) override
    {
        const size_t initial = spec_.initialMachines == 0
            ? n
            : spec_.initialMachines;
        for (size_t m = 0; m < n; m++) {
            if (m < initial) {
                state[m] = MState::Accepting;
                poweredSince[m] = loop.t0;
                acceptingSince[m] = loop.t0;
            } else {
                loop.view.setAccepting(m, false);
            }
        }
        result_.minServingMachines = initial;
        result_.maxServingMachines = initial;
        windowStart = loop.t0;
        loop.events.push(loop.t0 + spec_.controlIntervalSeconds,
                         SimEvent::Kind::Control, 0, 0);
    }

    // A crash is a forced, instant power-off: queued and in-flight
    // work dies with the engine, and the machine cannot be re-powered
    // until its scheduled repair.
    void
    crash(ClusterLoop& loop, uint32_t m, double now) override
    {
        if (state[m] == MState::Off)
            return;    // nothing powered to kill
        loop.view.setAccepting(m, false);
        if (state[m] != MState::Warming)
            loop.killEngine(m, now);
        powerOff(m, now);
    }

    // The machine stays Off; the scaling policy re-powers it through
    // the normal warm-up lifecycle when capacity is short.
    void recover(ClusterLoop&, uint32_t) override {}

    bool
    serving(const ClusterLoop&, size_t m) const override
    {
        return state[m] == MState::Accepting ||
            state[m] == MState::Draining;
    }

    void
    onEvent(ClusterLoop& loop, const SimEvent& ev) override
    {
        if (ev.kind == SimEvent::Kind::Control) {
            tick(loop, ev.time);
            // Stop ticking once the trace is exhausted: the remaining
            // events only drain in-flight work.
            if (loop.nextArrival < loop.trace.size())
                loop.events.push(ev.time + spec_.controlIntervalSeconds,
                                 SimEvent::Kind::Control, 0, 0);
            return;
        }
        // MachineUp. Stale warm-ups (cancelled, possibly re-ordered)
        // carry an old epoch and are ignored.
        const uint32_t m = ev.machine;
        if (state[m] == MState::Warming && ev.partIdx == upEpoch[m]) {
            state[m] = MState::Accepting;
            acceptingSince[m] = ev.time;
            loop.view.setAccepting(m, true);
        }
    }

    /** A draining machine with no remaining work powers off now. */
    void
    workDone(ClusterLoop& loop, uint32_t m, double now) override
    {
        if (state[m] == MState::Draining &&
            loop.view.inFlightQueries(m) == 0 &&
            loop.pendingJoins[m] == 0 && loop.view.engine(m).idle())
            powerOff(m, now);
    }

    void onCompletion(double latency) override { windowLat.add(latency); }

    void
    finish(ClusterLoop& loop) override
    {
        for (size_t m = 0; m < n; m++) {
            if (state[m] != MState::Off)
                powerOff(m, loop.lastEventTime);
        }
    }

    double
    billedSeconds(size_t m, double) const override
    {
        return result_.poweredSecondsPerMachine[m];
    }

  private:
    void
    powerOff(size_t m, double now)
    {
        result_.poweredSecondsPerMachine[m] += now - poweredSince[m];
        state[m] = MState::Off;
    }

    size_t
    countState(MState s) const
    {
        return static_cast<size_t>(std::count(state.begin(), state.end(), s));
    }

    /**
     * Shard re-validation for removal: machine @p m may only leave the
     * accepting set if every table it holds keeps a replica on another
     * machine that is still accepting — otherwise a query touching
     * that table could no longer be routed.
     */
    bool
    canDrain(size_t m) const
    {
        if (!spec_.cluster.sharding.has_value())
            return true;
        const ShardPlacement& placement = spec_.cluster.sharding->placement;
        for (uint32_t t : placement.tablesOnMachine(m)) {
            const std::vector<uint32_t>& holders =
                placement.machinesOfTable(t);
            if (std::none_of(holders.begin(), holders.end(),
                             [&](uint32_t other) {
                                 return other != m &&
                                     state[other] == MState::Accepting;
                             }))
                return false;
        }
        return true;
    }

    /**
     * Move the tier toward @p target serving machines (accepting +
     * warming). Growth cancels drains first (those machines are still
     * warm), then powers on cold machines through the warm-up delay;
     * shrink cancels warm-ups first (they hold no work), then drains
     * accepting machines newest-first, skipping any the placement
     * re-validation refuses. Returns the serving count achieved.
     */
    size_t
    applyTarget(ClusterLoop& loop, size_t target, double now)
    {
        size_t accepting = countState(MState::Accepting);
        size_t serving = accepting + countState(MState::Warming);
        if (target > serving) {
            size_t need = target - serving;
            for (size_t m = n; m-- > 0 && need > 0;) {
                if (state[m] == MState::Draining) {
                    state[m] = MState::Accepting;
                    acceptingSince[m] = now;
                    loop.view.setAccepting(m, true);
                    need--;
                    serving++;
                    accepting++;
                }
            }
            for (size_t m = 0; m < n && need > 0; m++) {
                // A crashed machine is Off but unavailable until its
                // scheduled repair.
                if (state[m] != MState::Off || loop.down(m))
                    continue;
                poweredSince[m] = now;
                need--;
                serving++;
                if (spec_.warmupDelaySeconds > 0.0) {
                    state[m] = MState::Warming;
                    upEpoch[m]++;
                    loop.events.push(now + spec_.warmupDelaySeconds,
                                     SimEvent::Kind::MachineUp,
                                     static_cast<uint32_t>(m), upEpoch[m]);
                } else {
                    state[m] = MState::Accepting;
                    acceptingSince[m] = now;
                    loop.view.setAccepting(m, true);
                    accepting++;
                }
            }
        } else if (target < serving) {
            size_t excess = serving - target;
            for (size_t m = n; m-- > 0 && excess > 0;) {
                if (state[m] == MState::Warming) {
                    powerOff(m, now);    // accepted nothing yet
                    excess--;
                    serving--;
                }
            }
            for (size_t m = n; m-- > 0 && excess > 0;) {
                if (state[m] != MState::Accepting || accepting <= 1)
                    continue;
                if (!canDrain(m))
                    continue;    // would orphan a shard: refused
                state[m] = MState::Draining;
                loop.view.setAccepting(m, false);
                accepting--;
                serving--;
                excess--;
                workDone(loop, static_cast<uint32_t>(m), now);
            }
        }
        return serving;
    }

    /** One control tick: read the window's signals, ask the policy,
     *  resize, and record the window. */
    void
    tick(ClusterLoop& loop, double now)
    {
        // Utilization over *accepting* capacity only: draining and
        // warming machines would dilute the signal right after a
        // scale event (ScalingSignals::windowUtilization).
        double busy = 0.0;
        double capacity = 0.0;
        for (size_t m = 0; m < n; m++) {
            const double busy_now =
                loop.view.engine(m).busyCoreSecondsAt(now);
            const double delta = busy_now - windowBusyStart[m];
            windowBusyStart[m] = busy_now;
            if (state[m] == MState::Accepting) {
                busy += delta;
                capacity +=
                    (now - std::max(acceptingSince[m], windowStart)) *
                    static_cast<double>(
                        spec_.cluster.machines[m].cores());
            }
        }
        const uint64_t arrivals =
            result_.overload.offered - windowOfferedStart;
        const uint64_t drops = result_.overload.dropped - windowDroppedStart;

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
            ? static_cast<double>(arrivals) / sig.windowSeconds
            : 0.0;
        sig.windowDrops = drops;
        drs_assert(countState(MState::Accepting) ==
                       loop.view.acceptingCount(),
                   "accepting counter drifted from machine states");
        sig.acceptingMachines = loop.view.acceptingCount();
        sig.warmingMachines = countState(MState::Warming);
        sig.drainingMachines = countState(MState::Draining);
        sig.maxMachines = n;

        // A window is violating when its observed tail exceeds the
        // SLA — or when nothing completed at all while queries were
        // outstanding: a stalled tier must score as the worst window,
        // not a perfect one. Dispatches a failure killed are no longer
        // outstanding — their fate is settled. Every failed
        // presentation, a dispatch or an unroutable one, fails over or
        // is lost (assertFaultConservation's last identity).
        const FaultStats& f = result_.faults;
        const uint64_t outstanding =
            (result_.numDispatched + f.unroutable) -
            (result_.numCompleted + f.failovers + f.lost);
        const bool violation =
            (windowLat.count() > 0 && sig.windowTailMs > spec_.slaMs) ||
            (windowLat.count() == 0 && outstanding > 0);
        if (violation)
            result_.slaViolationSeconds += sig.windowSeconds;

        const size_t serving_before =
            sig.acceptingMachines + sig.warmingMachines;
        const size_t target =
            clampTarget(policy_.targetMachines(sig), 1, n);
        const size_t granted = applyTarget(loop, target, now);
        if (target != serving_before || granted != serving_before) {
            result_.scaleEvents.push_back(
                {now, serving_before, target, granted});
            if (loop.obs)
                loop.obs->onScaleEvent(now, serving_before, target, granted);
        }
        result_.minServingMachines =
            std::min(result_.minServingMachines, granted);
        result_.maxServingMachines =
            std::max(result_.maxServingMachines, granted);

        AutoscaleWindow row;
        row.endSeconds = now;
        row.tailMs = sig.windowTailMs;
        row.utilization = sig.windowUtilization;
        row.arrivalQps = sig.arrivalQps;
        row.servingMachines = granted;
        row.poweredMachines = granted + countState(MState::Draining);
        row.drops = drops;
        row.slaViolation = violation;
        result_.timeline.push_back(row);

        if (loop.obs) {
            obs::MetricRegistry& reg = loop.obs->metrics();
            auto set = [&](const char* name, double value) {
                reg.gauge(name).set(value);
            };
            set("machines", static_cast<double>(row.servingMachines));
            set("accepting_machines",
                static_cast<double>(loop.view.acceptingCount()));
            set("warming_machines",
                static_cast<double>(countState(MState::Warming)));
            set("draining_machines",
                static_cast<double>(countState(MState::Draining)));
            set("powered_machines", static_cast<double>(row.poweredMachines));
            set("utilization", row.utilization);
            set("window_p99_ms", row.tailMs);
            set("arrival_qps", row.arrivalQps);
            set("window_drops", static_cast<double>(drops));
            size_t queued_total = 0;
            size_t queued_max = 0;
            for (size_t m = 0; m < n; m++) {
                const size_t queued = loop.view.engine(m).queuedWork();
                queued_total += queued;
                queued_max = std::max(queued_max, queued);
            }
            set("queue_depth_total", static_cast<double>(queued_total));
            set("queue_depth_max", static_cast<double>(queued_max));
            obs::Counter& violations =
                reg.counter("sla_violation_windows");
            if (violation)
                violations.add();
        }
        if (loop.obs)
            loop.obs->snapshot(now);

        windowLat = SampleStats{};
        windowOfferedStart = result_.overload.offered;
        windowDroppedStart = result_.overload.dropped;
        windowStart = now;
    }

    const AutoscaleSpec& spec_;
    ScalingPolicy& policy_;
    AutoscaleResult& result_;
    const size_t n;

    std::vector<MState> state;
    std::vector<double> poweredSince;
    std::vector<double> acceptingSince;
    /** Bumped per power-on, so a cancelled warm-up's event is stale. */
    std::vector<uint64_t> upEpoch;

    // Window signals since the last tick.
    SampleStats windowLat;            ///< every completion's latency
    uint64_t windowOfferedStart = 0;  ///< offered at the window start
    uint64_t windowDroppedStart = 0;  ///< shed at the window start
    double windowStart = 0;
    std::vector<double> windowBusyStart;
};

} // namespace

std::unique_ptr<ScalingPolicy>
makeScalingPolicy(const ScalingPolicySpec& policy,
                  const AutoscaleSpec& spec)
{
    if (policy.minMachines > spec.cluster.machines.size())
        drs_fatal("scaling floor of ", policy.minMachines,
                  " machines exceeds the tier's ",
                  spec.cluster.machines.size());
    switch (policy.kind) {
      case ScalingPolicyKind::Static:
        return std::make_unique<StaticPolicy>();
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
    validateClusterConfig(cfg, "elastic tier");
    validateSla(spec_.slaMs, spec_.percentile);
    if (!(spec_.controlIntervalSeconds > 0.0))
        drs_fatal("control interval must be positive");
    if (!(spec_.warmupDelaySeconds >= 0.0))
        drs_fatal("warm-up delay cannot be negative");
    if (spec_.initialMachines > cfg.machines.size())
        drs_fatal("initial machines exceed the tier");
    if (cfg.sharding.has_value()) {
        // The machines accepting at trace start must already cover
        // every table — the mirror of the drain re-validation: a
        // query cannot be routed to a replica that is powered off. The
        // initial set is machines [0, initial), so a table is covered
        // when its lowest holder is in it.
        const ShardPlacement& placement = cfg.sharding->placement;
        const size_t initial = spec_.initialMachines == 0
            ? cfg.machines.size()
            : spec_.initialMachines;
        for (uint32_t t = 0;
             t < static_cast<uint32_t>(placement.numTables()); t++) {
            const auto& holders = placement.machinesOfTable(t);
            if (holders.empty() || holders.front() >= initial)
                drs_fatal("initial accepting set leaves a table with no "
                          "replica; raise initialMachines");
        }
    }
}

AutoscaleResult
Autoscaler::run(const QueryTrace& trace, RoutingPolicy& router,
                ScalingPolicy& policy) const
{
    const ClusterConfig& cfg = spec_.cluster;
    AutoscaleResult result;
    result.poweredSecondsPerMachine.assign(cfg.machines.size(), 0.0);
    ElasticMembership members(spec_, policy, result);
    ClusterLoop loop(cfg, trace, router, members, obs_, result);
    loop.run();

    // The elastic books run from the first arrival to the last event.
    result.spanSeconds = loop.lastEventTime - loop.t0;
    result.staticMachineSeconds =
        static_cast<double>(cfg.machines.size()) * result.spanSeconds;
    for (double powered : result.poweredSecondsPerMachine)
        result.machineSeconds += powered;
    return result;
}

AutoscaleResult
Autoscaler::run(const QueryTrace& trace, ScalingPolicy& policy) const
{
    const ClusterConfig& cfg = spec_.cluster;
    const std::unique_ptr<RoutingPolicy> router = makeRoutingPolicy(
        spec_.routing, cfg.sharding.has_value() ? &*cfg.sharding : nullptr);
    return run(trace, *router, policy);
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
