/**
 * @file
 * Online autoscaling of the cluster tier over diurnal load.
 *
 * The capacity planner (capacity_planner.hh) sizes a *static* tier
 * for peak traffic, so every machine of the plan burns power through
 * the trough of the day. Real recommendation fleets instead add and
 * remove serving machines online against the diurnal swing — the
 * provisioning cycle both DeepRecSys's tail-latency study (its
 * Figure 13 runs over a day-long load swing) and the capacity-driven
 * scale-out work (Lui et al.) describe. This header models that
 * control loop: an Autoscaler drives the elastic variant of the
 * cluster simulation over a DiurnalProfile-modulated arrival stream
 * and adjusts the live machine count at a fixed control interval from
 * observed windowed signals, reporting the machine-hours saved
 * against the static peak plan and the minutes spent violating the
 * SLA.
 *
 * Mechanics. The full tier (`AutoscaleSpec::cluster`, the static
 * plan) is the maximum fleet; each machine is in one of four states:
 *
 *  - **Off**: powered down, costs nothing, serves nothing.
 *  - **WarmingUp**: powered (billed) but not yet accepting — a scale
 *    up takes `warmupDelaySeconds` before the machine joins the
 *    router's accepting set (process start, model load, cache warm).
 *  - **Accepting**: in the routing set, serving queries.
 *  - **Draining**: removed from the routing set but still powered,
 *    finishing its in-flight work — connection-draining removal, so
 *    scale-down never drops a query. Powered off at the first moment
 *    it holds no work; a scale-up may also cancel the drain and
 *    return it to Accepting instantly (it is still warm).
 *
 * When the cluster carries a FaultPlan (cluster/fault_plan.hh), a
 * crash is a forced, instant power-off: queued and in-flight work on
 * the machine is lost (accounted in AutoscaleResult::faults), the
 * machine leaves the accepting set immediately, and it cannot be
 * powered back on until its scheduled repair completes — after which
 * the scaling policy replaces the capacity through the normal
 * Off → WarmingUp → Accepting lifecycle. Killed queries fail over
 * (re-present to the router) up to FaultPlan::maxFailovers times. A
 * HedgeConfig hedges late fan-out parts onto accepting replicas, as on
 * the static tier.
 *
 * Scale decisions come from a pluggable ScalingPolicy evaluated at
 * every control tick against windowed signals (tail latency of the
 * window's completions vs the SLA, fleet utilization over powered
 * capacity, observed arrival rate). The policies' shapes are fixed
 * in autoscaler.cc: the reactive policy steers toward 0.65
 * utilization, treats a tail past 0.8 of the SLA as hot, sheds at most
 * one machine and grows by at most two per tick on utilization alone,
 * and allows 10% headroom over its served-rate high-water mark; the
 * predictive policy looks ahead by warm-up delay plus control interval
 * and adds a 12% safety margin; the static policy always asks for the
 * full tier. Beyond the kind and the machine floor, ScalingPolicySpec
 * carries only the reactive utilization band and scale-down latency
 * interlock. Control ticks and warm-up completions enter the same
 * deterministic event queue as service completions, so scale events
 * interleave with traffic in one total (time, insertion) order. On a
 * sharded tier, a machine may only drain if every embedding table it
 * holds keeps at least one replica among the machines that remain
 * accepting — the placement is re-validated on the surviving set at
 * every scale-down, and drains that would orphan a table are refused
 * (logged in the scale-event record).
 *
 * Units: all times in **seconds** unless the member name says
 * otherwise (…Ms in milliseconds, machineHours() in hours); rates in
 * queries per second. Ownership: the Autoscaler copies its spec;
 * results are self-contained values. Determinism: run() is a pure
 * function of (trace, spec, policy state) — a run is single-threaded
 * and fixed seeds reproduce every statistic bit-for-bit at any
 * DRS_THREADS value; only sweeps *across* runs parallelize.
 */

#ifndef DRS_CLUSTER_AUTOSCALER_HH
#define DRS_CLUSTER_AUTOSCALER_HH

#include <memory>
#include <vector>

#include "base/stats.hh"
#include "cluster/cluster_sim.hh"
#include "loadgen/distributions.hh"
#include "loadgen/query.hh"

namespace deeprecsys {

/** The scaling-policy families the elastic tier can run. */
enum class ScalingPolicyKind
{
    /** The full tier, always — the static peak plan as a policy; the
     *  baseline every elastic policy is compared against. */
    Static,

    /** Threshold feedback on observed utilization with an SLA guard:
     *  scale up when utilization or windowed tail latency run hot,
     *  step down conservatively when utilization runs cold. Sees only
     *  measurements, never the traffic schedule. */
    Reactive,

    /** Profile-aware feed-forward: knows the DiurnalProfile and the
     *  static plan, provisions machines proportional to the rate the
     *  profile predicts one look-ahead interval out (plus a safety
     *  margin), so capacity is already warm when the ramp arrives. */
    Predictive,
};

/** Name for printing. */
const char* scalingPolicyName(ScalingPolicyKind kind);

/** Every scaling-policy kind, in declaration order (for sweeps). */
const std::vector<ScalingPolicyKind>& allScalingPolicyKinds();

/**
 * What a scaling policy observes at one control tick. All signals are
 * measured over the window since the previous tick.
 */
struct ScalingSignals
{
    double timeSeconds = 0;      ///< tick time (trace clock)
    double windowSeconds = 0;    ///< signal window length

    /** Tail latency of the window's completions in milliseconds at
     *  the spec's percentile; negative when nothing completed. */
    double windowTailMs = -1.0;

    /**
     * Busy core-seconds over **accepting** core-capacity, in [0, 1].
     * Deliberately excludes draining and warming machines: counting
     * a draining machine's capacity dilutes the reading right after
     * a shed, and the stale low value would cascade further sheds
     * before the measurement catches up.
     */
    double windowUtilization = 0;

    double arrivalQps = 0;       ///< arrivals in window / window

    /**
     * Queries shed at the router during the window. Always 0 unless
     * the tier runs with overload control enabled
     * (ClusterConfig::overload); a nonzero value is the strongest
     * possible scale-up signal — the tier is refusing work *now*,
     * before the windowed tail can even show it.
     */
    uint64_t windowDrops = 0;

    size_t acceptingMachines = 0;
    size_t warmingMachines = 0;
    size_t drainingMachines = 0;
    size_t maxMachines = 0;      ///< full-tier machine count
};

/**
 * A scale decision function. Policies may keep state (trend history);
 * build a fresh one per run to reproduce results.
 */
class ScalingPolicy
{
  public:
    virtual ~ScalingPolicy() = default;

    /**
     * Desired number of *serving* machines (accepting + warming) for
     * the next window. The driver clamps to [1, maxMachines], powers
     * machines on (through warm-up) to grow, and drains to shrink.
     */
    virtual size_t targetMachines(const ScalingSignals& signals) = 0;

    /** The policy family. */
    virtual ScalingPolicyKind kind() const = 0;

    /** Printable policy name. */
    const char* name() const { return scalingPolicyName(kind()); }
};

/** Configuration from which a concrete scaling policy is built. */
struct ScalingPolicySpec
{
    ScalingPolicyKind kind = ScalingPolicyKind::Reactive;

    /** Floor on the serving machine count (every kind); at most the
     *  tier's size, which makeScalingPolicy checks. */
    size_t minMachines = 1;

    // ---------------------------------------------------- reactive
    // Resizing steers utilization toward a fixed 0.65 target, which
    // the band below must bracket.

    /** Scale up when window utilization exceeds this. */
    double upUtilization = 0.75;

    /** Consider scaling down when window utilization is below this
     *  (hysteresis band against flapping). Deliberately far below
     *  upUtilization: near the SLA knee, utilization is violently
     *  nonlinear in offered rate (queueing contention feedback), so
     *  a narrow band would flap across the knee. */
    double downUtilization = 0.40;

    /**
     * Latency interlock on scale-down: only shed when the windowed
     * tail is also below this fraction of the SLA. Low utilization
     * with an elevated tail means the tier is already near its
     * queueing knee — shedding then trades the whole saving back as
     * SLA violations.
     */
    double downLatencyFraction = 0.40;
};

/** Configuration of an elastic cluster run. */
struct AutoscaleSpec
{
    /**
     * The full tier — typically the static peak plan from
     * planCapacity. machines.size() is the maximum fleet; sharding,
     * network and join model all behave as in ClusterSimulator.
     */
    ClusterConfig cluster;

    RoutingSpec routing;         ///< router policy of the tier

    double slaMs = 100.0;        ///< tail-latency target
    double percentile = 99.0;    ///< which tail

    /** Seconds between scaling-policy evaluations. */
    double controlIntervalSeconds = 5.0;

    /** Power-on to accepting (process start + model load). */
    double warmupDelaySeconds = 2.0;

    /** Machines accepting at trace start; 0 means the full tier. */
    size_t initialMachines = 0;

    // ------------------------- context for the predictive policy
    /** The day's load shape (flat by default). */
    DiurnalProfile profile{1.0};

    /** Mean offered rate of the day's trace (Predictive requires). */
    double meanQps = 0.0;

    /** Static plan size at the day's peak rate (Predictive
     *  requires); the baseline the savings are measured against. */
    size_t machinesAtPeak = 0;
};

/**
 * Build a concrete scaling policy. Predictive reads its profile and
 * plan anchors from @p spec and asserts they are set. A machine floor
 * above the tier's size is refused through drs_fatal.
 */
std::unique_ptr<ScalingPolicy> makeScalingPolicy(
    const ScalingPolicySpec& policy, const AutoscaleSpec& spec);

/** One scale decision as applied (recorded at each changing tick). */
struct ScaleEvent
{
    double timeSeconds = 0;
    size_t servingBefore = 0;  ///< accepting + warming at the tick
    size_t target = 0;         ///< what the policy asked for (clamped)

    /** What the driver achieved: scale-down on a sharded tier may
     *  grant less when draining a machine would orphan a table. */
    size_t granted = 0;
};

/** Signal snapshot of one control window (timeline for plots/docs). */
struct AutoscaleWindow
{
    double endSeconds = 0;
    double tailMs = -1.0;      ///< window completions; -1 when none
    double utilization = 0;
    double arrivalQps = 0;
    size_t servingMachines = 0;  ///< accepting + warming after the tick
    size_t poweredMachines = 0;  ///< + draining
    uint64_t drops = 0;          ///< queries shed during the window
    bool slaViolation = false;
};

/**
 * Outcome of one elastic cluster run: the ClusterResult books plus the
 * power books and the control timeline. The trace-sized books
 * (machineOfQuery, partMachinesOfQuery, perModel) stay empty. Two
 * inherited fields mean something else here: spanSeconds runs from the
 * first arrival to the last event, and each machine's utilization is
 * over its powered seconds, not over the span.
 */
struct AutoscaleResult : ClusterResult
{
    /** Powered (billed) seconds per machine: on through drained. */
    std::vector<double> poweredSecondsPerMachine;

    /** Billed machine time: the elastic tier's actual burn. */
    double machineSeconds = 0;

    /** The static baseline: the full tier powered for the span. */
    double staticMachineSeconds = 0;

    /**
     * Seconds of control windows whose observed tail exceeded the
     * SLA — including windows in which *nothing* completed while
     * queries were outstanding (a stalled tier counts as violating,
     * not as unobserved).
     */
    double slaViolationSeconds = 0;

    size_t minServingMachines = 0; ///< over all control windows
    size_t maxServingMachines = 0;

    std::vector<ScaleEvent> scaleEvents;
    std::vector<AutoscaleWindow> timeline;

    /** Billed machine-hours of the elastic run. */
    double machineHours() const { return machineSeconds / 3600.0; }

    /** Machine-hours of the static plan over the same span. */
    double
    staticMachineHours() const
    {
        return staticMachineSeconds / 3600.0;
    }

    /** Fraction of the static plan's machine-hours saved, in [0, 1). */
    double
    machineHoursSavedFraction() const
    {
        return staticMachineSeconds > 0.0
                   ? 1.0 - machineSeconds / staticMachineSeconds
                   : 0.0;
    }

    /** Minutes of control windows whose tail exceeded the SLA. */
    double slaViolationMinutes() const { return slaViolationSeconds / 60.0; }
};

/**
 * The elastic cluster driver: the cluster event loop
 * (cluster/cluster_loop.hh) under the elastic membership, so routing,
 * fan-out/join, admission, faults and hedging are ClusterSimulator's,
 * with a machine set that changes while the trace runs.
 */
class Autoscaler
{
  public:
    explicit Autoscaler(AutoscaleSpec spec);

    /**
     * Run the trace (sorted by arrival) to completion, routing each
     * query through @p router and evaluating @p policy every control
     * interval. Both are stateful: pass fresh ones to reproduce a run.
     */
    AutoscaleResult run(const QueryTrace& trace, RoutingPolicy& router,
                        ScalingPolicy& policy) const;

    /** Convenience: route through a fresh router built from the
     *  spec's routing, then run. */
    AutoscaleResult run(const QueryTrace& trace,
                        ScalingPolicy& policy) const;

    /** Convenience: build a fresh policy from @p spec, then run. */
    AutoscaleResult run(const QueryTrace& trace,
                        const ScalingPolicySpec& spec) const;

    /**
     * Attach an observability recorder for subsequent runs (nullptr
     * detaches). Borrowed — the observer must outlive the run. The
     * driver snapshots the observer's metric registry at every
     * control tick, so metric snapshot times align with the
     * AutoscaleResult timeline rows. The disabled path costs one
     * pointer test per hook site.
     */
    void setObserver(obs::RunObserver* observer) { obs_ = observer; }

    const AutoscaleSpec& spec() const { return spec_; }

  private:
    AutoscaleSpec spec_;
    obs::RunObserver* obs_ = nullptr;
};

} // namespace deeprecsys

#endif // DRS_CLUSTER_AUTOSCALER_HH
