/**
 * @file
 * Deterministic fault injection for the cluster serving tier: seeded
 * fail-stop crashes, gray failures (straggler machines), and timed
 * recoveries.
 *
 * Every machine in the simulated fleet used to be immortal, so
 * availability under failure was unmeasurable and replication only
 * ever paid off for load, never for the fault tolerance that
 * motivates it in production. This header owns the *chaos schedule*:
 * a `FaultPlan` is expanded once, before the run, into a sorted list
 * of `FaultEvent`s by `buildFaultSchedule` — a pure function of
 * (seed, machine, horizon) with per-machine independent RNG streams,
 * so the schedule is identical at any `DRS_THREADS` value and across
 * repeated runs, and adding machines never perturbs the streams of
 * existing ones. The drivers (`ClusterSimulator`, `Autoscaler`)
 * enqueue each transition as a first-class `SimEvent::Kind::Fault` on
 * the shared (time, seq) queue, so faults interleave with traffic in
 * one deterministic total order.
 *
 * Crash semantics are fail-stop: queued and in-flight work on the
 * dead machine is *lost*, with explicit accounting — the historical
 * conservation law `offered == completed + dropped` generalizes to
 * the three-way algebra
 *
 *     offered == completed + droppedFinal + lost
 *
 * which `assertFaultConservation` checks exactly (in integers, no
 * tolerance) at the end of every chaos run, alongside the finer
 * presentation- and dispatch-level balances it decomposes into.
 *
 * Recovery layers on top: a killed query *fails over* — it is
 * re-presented to the router after a small backoff, up to
 * `maxFailovers` times, where shard-aware routing re-covers its
 * working set from surviving replicas — and a straggling fan-out part
 * can be *hedged* (`HedgeConfig`): after a fixed delay the router
 * duplicates it on another replica and takes the first response,
 * cancellation keeping the books balanced.
 *
 * Malformed plans are refused with drs_fatal (validateFaultPlan).
 *
 * Units: seconds; rates in events per hour per machine (fleet
 * operators think in per-machine annualized failure rates; the sim
 * compresses them). Determinism: everything here is pure — the only
 * RNG draws happen inside buildFaultSchedule, seeded per machine.
 */

#ifndef DRS_CLUSTER_FAULT_PLAN_HH
#define DRS_CLUSTER_FAULT_PLAN_HH

#include <cstdint>
#include <vector>

#include "cluster/admission.hh"

namespace deeprecsys {

/**
 * The seeded chaos schedule of one run. Default-constructed it is
 * fully disabled and the drivers are bitwise identical to their
 * historical behavior (the fault layer is invisible until enabled).
 */
struct FaultPlan
{
    /** Seed of the per-machine fault streams. */
    uint64_t seed = 0x0fa0175eedULL;

    // -------------------------------------------------- fail-stop
    /** Crash rate per machine, in crashes per hour (0 disables). */
    double crashesPerHour = 0.0;

    /** Seconds from a crash to the machine rejoining service. */
    double repairSeconds = 5.0;

    // ------------------------------------------------ gray failure
    /** Gray-failure (straggler window) rate per machine per hour. */
    double grayPerHour = 0.0;

    /** Service-time multiplier while gray (> 1 is slower). Invisible
     *  to the admission estimator by design — a gray machine lies
     *  about its speed the way real stragglers do. */
    double graySlowdownFactor = 4.0;

    /** Length of one gray window in seconds. */
    double grayDurationSeconds = 2.0;

    // ------------------------------------------ correlated failure
    /**
     * Correlated-failure scenario: at this offset from the first
     * arrival, machines [0, correlatedCrashMachines) crash *together*
     * (a rack or power-domain loss — the case that defeats naive
     * replica placement). Negative disables.
     */
    double correlatedCrashSeconds = -1.0;
    uint32_t correlatedCrashMachines = 0;

    // ------------------------------------------------- recovery
    /**
     * Replication-for-availability floor: with sharding configured,
     * the drivers refuse placements where any table has fewer than
     * this many replicas (ShardPlacement::replicatedFor). 0 disables
     * the validator (single-copy placements stay legal).
     */
    uint32_t faultTolerance = 0;

    /**
     * Times a killed query may be re-presented to the router (where
     * routing re-covers its tables from surviving replicas). 0 makes
     * every kill a final loss.
     */
    uint32_t maxFailovers = 0;

    /** Client-side delay before the first failover re-present; grows
     *  exponentially per attempt (detection + reconnect time). */
    double failoverDelaySeconds = 0.002;

    /** True when any fault source is active. */
    bool
    enabled() const
    {
        return crashesPerHour > 0.0 || grayPerHour > 0.0 ||
               (correlatedCrashSeconds >= 0.0 &&
                correlatedCrashMachines > 0);
    }
};

/** Refuse a malformed @p plan with drs_fatal (validateClusterConfig
 *  and buildFaultSchedule call it). */
void validateFaultPlan(const FaultPlan& plan);

/**
 * Tail-at-scale hedged requests (Dean & Barroso's "tied requests"):
 * when a fanned-out query is still missing parts this long after
 * dispatch, the router duplicates each unfinished non-leader part on
 * another accepting replica and takes whichever copy answers first.
 * The loser's completion is discarded (cancellation bookkeeping keeps
 * per-machine accounting balanced), and a hedge whose partner later
 * dies in a crash *saves* the query. Disabled by default.
 */
struct HedgeConfig
{
    /** Hedge delay in seconds after dispatch; 0 disables hedging. The
     *  classic operating point is a tail quantile of expected latency,
     *  so ~0.3-0.7 of a deadline. */
    double delaySeconds = 0.0;

    bool enabled() const { return delaySeconds > 0.0; }
};

/** One scheduled fault transition (expanded from a FaultPlan). */
struct FaultEvent
{
    double time = 0.0;
    enum class Kind
    {
        Crash,
        Recover,
        GrayStart,
        GrayEnd,
    } kind = Kind::Crash;
    uint32_t machine = 0;
};

/**
 * Expand @p plan into the full fault schedule for machines
 * [0, num_machines) over [start_time, end_time), sorted by
 * (time, machine, kind). Pure: equal arguments give bitwise equal
 * schedules; each machine's crash and gray streams are independently
 * seeded so the schedule of machine m never depends on num_machines.
 * Window-closing events (Recover/GrayEnd) may land beyond end_time so
 * every opened window closes.
 */
std::vector<FaultEvent> buildFaultSchedule(const FaultPlan& plan,
                                           uint32_t num_machines,
                                           double start_time,
                                           double end_time);

/**
 * Failure/recovery accounting of one run. Query-level conservation
 * (checked by assertFaultConservation):
 *
 *   - every presentation is a trace arrival, a shed retry, or a
 *     failover:  offered + retried + failovers
 *                    == admitted + dropped + unroutable
 *   - every admission (and every unroutable presentation) ends as a
 *     completion, a failover re-present, or a final loss:
 *         admitted + unroutable == completed + failovers + lost
 *   - which together with the overload-layer balances collapses to
 *     the headline three-way algebra:
 *         offered == completed + droppedFinal + lost
 *
 * `unroutable` presentations (no accepting replica set covers the
 * query's tables — e.g. the sole holder of a table is down) are
 * neither admitted nor dropped: admission never saw a servable query.
 * They are excluded from the per-class overload books, which track
 * admission outcomes only.
 */
struct FaultStats
{
    uint64_t crashes = 0;           ///< machines-went-down transitions
    uint64_t recoveries = 0;        ///< machines-came-back transitions
    uint64_t grayWindows = 0;       ///< gray windows opened
    /** Always 0, since network hops do not fail; kept only because
     *  the repository benchmark's digest reads it. */
    uint64_t netDegradeWindows = 0;

    uint64_t partsLost = 0;    ///< parts destroyed by crashes
    uint64_t lost = 0;         ///< queries destroyed, no failover left
    uint64_t failovers = 0;    ///< kill-then-re-present transitions
    uint64_t unroutable = 0;   ///< presentations with no replica cover

    uint64_t hedged = 0;       ///< duplicate parts issued
    uint64_t hedgeWins = 0;    ///< duplicates that finished first
    uint64_t hedgeWasted = 0;  ///< loser completions discarded
    uint64_t hedgeSaves = 0;   ///< lost parts whose partner survived

    /** Trace indices of lost queries, in loss order. */
    std::vector<uint64_t> lostQueries;
};

/**
 * Fatally assert the exact (integer) conservation algebra of one run:
 * see FaultStats. With faults disabled this degenerates to the
 * historical overload balances plus dispatched == admitted and
 * completed == dispatched. Both drivers call it after every run.
 */
void assertFaultConservation(const OverloadStats& overload,
                             const FaultStats& faults,
                             uint64_t num_dispatched,
                             uint64_t num_completed,
                             uint64_t trace_size);

} // namespace deeprecsys

#endif // DRS_CLUSTER_FAULT_PLAN_HH
