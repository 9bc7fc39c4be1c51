/**
 * @file
 * Overload control at the cluster router: deadline-aware admission,
 * load shedding, and degraded (fewer-candidates) serving.
 *
 * Past saturation an open-loop tier queues unboundedly, so every
 * overload question answers "infinite p99". Real serving stacks
 * instead bound the damage at the front door: an **admission policy**
 * refuses queries the tier cannot serve in time (load shedding), and
 * a **degrade policy** runs the paper's per-query size knob in
 * reverse — under pressure it scores *fewer* candidate items per
 * query, shrinking the query before dispatch so the reduced
 * embedding/dense cost is charged through the ordinary MachineEngine
 * cost model, instead of dropping the query outright.
 *
 * Both policies are evaluated by the router at each arrival against
 * the tier's live ClusterView (cluster/routing_policy.hh), the one
 * state the cluster loop writes, and only while some machine accepts:
 * with every machine down a query is unroutable and fails over as it
 * would without admission, never shed. The decision is a pure
 * function of (config, query, observed view), with no random draws,
 * so drop and degrade decisions are bitwise deterministic at any
 * DRS_THREADS value and across repeated runs.
 *
 * The quality currency is **goodput**: completions within the
 * deadline per second, each weighted by a quality factor in (0, 1] —
 * full-size answers weigh 1, degraded answers weigh
 * served size / original size (a fixed linear quality curve), dropped
 * or late answers weigh 0. Goodput can never exceed the raw
 * completion rate, and shedding trades a lower ceiling for a *finite*
 * tail where the open-loop tier melts down.
 *
 * Backlog estimation: the view exposes each machine's running
 * queue-cost sum (MachineEngine::queuedCostSeconds via
 * ClusterView::queuedCostSeconds) — every queued request priced
 * through the machine's own cost model at enqueue — plus the
 * committed-but-unqueued TwoStage join phases the machine already
 * owes (ClusterView::pendingJoinCostSeconds), which the controller
 * divides by the core pool for a drain-time estimate.
 *
 * Deadline admission prices the **full critical path** of the query
 * shape the tier actually serves. Unsharded: forward hop + mean
 * accepting backlog + service + return hop. Sharded under the
 * TwoStage join (the default), the query visits a queue *twice* —
 * fan-out embedding parts first, then the leader's dense phase after
 * the pooled embeddings join — so the estimate is forward hop +
 * slowest-shard first-visit backlog + embedding-part service +
 * embedding hop + the leader's projected second-visit wait + dense
 * service + return hop. The second visit is projected at the current
 * worst accepting backlog: in the overloaded regime where admission
 * binds, admitted arrivals refill what the queue drains (the
 * controller itself holds it at equilibrium), so the backlog the
 * join phase meets is the backlog visible now — while at light load
 * both terms vanish and nothing is spuriously shed. Pricing only the
 * first visit is the historical bug this layer replaces: the tier
 * then equilibrates where first wait + service ≈ deadline and
 * *measured* sharded p99 settles near twice the deadline.
 *
 * The degrade shape is fixed: shrinking starts at pressure 0.35 and
 * reaches a floor of a quarter of the original size (never below
 * OverloadConfig::minSize candidates) at pressure 1. So are the
 * router's other constants, kept beside it in admission.cc: the
 * queue-depth cap of 64 queued work items, the per-class priority
 * margin of 0.15 and the retry-storm pressure of 2. The retried
 * client's backoff is loadgen's (retryDelaySeconds). Config errors
 * are refused by validateClusterConfig (cluster/cluster_sim.hh) when
 * a facade is built, not by the controller.
 *
 * Units: seconds throughout; sizes in candidate samples. Ownership:
 * the controller copies its config and borrows the tier's machine
 * configs, which it prices through (SimConfig::serviceSeconds, the
 * engine's own pricing function); decisions read only those and
 * the view passed in. Determinism: see above — decide() is pure.
 */

#ifndef DRS_CLUSTER_ADMISSION_HH
#define DRS_CLUSTER_ADMISSION_HH

#include <cstdint>
#include <vector>

#include "cluster/network.hh"
#include "loadgen/query.hh"
#include "sim/machine_engine.hh"

namespace deeprecsys {

class ClusterView;

/** The admission policies the router can be configured with. */
enum class AdmissionKind
{
    /** Admit everything — the historical open-loop router. */
    None,

    /** Drop when every accepting machine holds more than 64 queued
     *  work items (classic bounded-queue shedding; deadline-blind). */
    QueueDepth,

    /**
     * Drop when the estimated completion time of the query on the
     * *least backlogged* accepting machine already exceeds the
     * deadline: if even the best machine cannot answer in time, the
     * query is dead on arrival and serving it only delays others.
     */
    Deadline,
};

/**
 * Overload-control configuration of one cluster tier. The default is
 * fully disabled — admission None, degrade off — and the drivers are
 * bitwise identical to their historical behavior in that state
 * (tests/test_engine_diff.cc holds them to it).
 */
struct OverloadConfig
{
    AdmissionKind admission = AdmissionKind::None;

    /**
     * The per-query completion budget in seconds. Deadline admission
     * drops queries estimated to miss it; goodput counts completions
     * within it. When 0, no goodput/deadline accounting happens at
     * all (the historical result fields are unchanged either way).
     */
    double deadlineSeconds = 0.0;

    // ----------------------------------------------------- degrade
    /** Score fewer candidates under pressure instead of dropping
     *  (the fixed shape is in the file comment). */
    bool degrade = false;

    /** Degrade never shrinks below this many candidates (ranking
     *  needs a minimum slate to be useful at all). */
    static constexpr uint32_t minSize = 8;

    // ---------------------------------------------------- priority
    /**
     * Number of priority classes; queries carry Query::priorityClass
     * (0 = most important, clamped to the configured count). 1 (the
     * historical default) is classless. With more, deadline admission
     * tightens lower-class budgets and degrade shrinks lower classes
     * earlier — so at any load, class c+1's shed and degrade rates
     * are at least class c's, never the reverse: class c admits
     * against a budget of deadline * (1 - 0.15 c) and sees its
     * degrade pressure raised by 0.15 c.
     */
    uint32_t priorityClasses = 1;

    /** Most classes an enabled policy takes: the largest count whose
     *  lowest class keeps a positive budget, 0.15 (count - 1) < 1. */
    static constexpr uint32_t maxPriorityClasses = 7;

    // ---------------------------------------- retry / backpressure
    /**
     * Client retries after a shed: 0 (the historical default) makes
     * every drop final; k lets a dropped query be re-presented up to
     * k times, re-timed by the client's jittered exponential backoff
     * (loadgen retryDelaySeconds). Latency of a retried completion
     * still counts from the original arrival, so retries buy
     * availability, not goodput.
     */
    uint32_t maxRetries = 0;

    /** True when any overload mechanism is active. */
    bool
    enabled() const
    {
        return admission != AdmissionKind::None || degrade;
    }
};

/** The router's verdict on one arriving query. */
struct AdmissionDecision
{
    bool admit = true;

    /** Size actually dispatched (== query size unless degraded). */
    uint32_t servedSize = 0;

    /** Quality factor of the answer, in (0, 1]; 1 when undegraded. */
    double quality = 1.0;

    /**
     * On a drop: whether the client may retry (retries configured and
     * the retry-storm guard did not fire). The driver still caps the
     * query's attempts at OverloadConfig::maxRetries.
     */
    bool retryable = false;

    /**
     * On a drop: Retry-After-style hint — the projected seconds until
     * the tier could admit this query, i.e. the excess of the
     * response-time estimate over the class budget, which is exactly
     * the queue drain the estimate must shed before the verdict
     * flips. Clients wait at least this long before re-presenting.
     */
    double retryAfterSeconds = 0.0;
};

/** Most queries one cluster run takes: a DegradeRecord holds its
 *  trace index in 32 bits. Part ids name a query by its QueryBook
 *  slot, not its trace index, so this bounds no part id. */
constexpr uint64_t kMaxTraceQueries = UINT32_MAX;

/** Refuse a trace of more than kMaxTraceQueries queries with
 *  drs_fatal. ClusterLoop calls it when a run starts. */
void validateTraceLength(uint64_t queries);

/**
 * One degraded admission: the trace index (below kMaxTraceQueries)
 * and the size the query shrank to; its original size is
 * trace[queryIdx].size. Degrade fires on most queries of an
 * overloaded day, so the record is 8 bytes. The fields are uint64_t
 * bit-fields rather than uint32_t so that they still read as
 * uint64_t: a caller overloaded on uint64_t and double stays exact.
 */
struct DegradeRecord
{
    uint64_t queryIdx : 32 = 0;
    uint64_t servedSize : 32 = 0;

    bool operator==(const DegradeRecord&) const = default;
};
static_assert(sizeof(DegradeRecord) == 8);

/**
 * The counters of overload accounting: a whole run's totals
 * (OverloadStats) or one priority class's slice of them.
 */
struct ClassOverloadStats
{
    uint64_t offered = 0;    ///< queries presented to the router
    uint64_t admitted = 0;   ///< dispatched (possibly degraded)
    uint64_t dropped = 0;    ///< refusals at the router (all attempts)
    uint64_t droppedFinal = 0;  ///< refusals with no retry scheduled
    uint64_t retried = 0;    ///< refusals a client re-presented
    uint64_t degraded = 0;   ///< admitted with a reduced size

    /** Measured completions (deadline accounting enabled only). */
    uint64_t measuredCompleted = 0;

    /** Measured completions within the deadline. */
    uint64_t completedWithinDeadline = 0;

    /** Sum of quality factors of within-deadline completions. */
    double qualityWeight = 0;

    /** Quality-weighted within-deadline completions per measured
     *  second — the headline goodput number. */
    double goodputQps = 0;

    /** Finally-dropped fraction of offered queries, in [0, 1]. */
    double
    shedRate() const
    {
        return offered > 0
            ? static_cast<double>(droppedFinal) /
                  static_cast<double>(offered)
            : 0.0;
    }
};

/**
 * Drop/degrade/goodput accounting of one run. Count fields cover the
 * whole trace. Conservation: every offered query either dispatches
 * or is finally dropped (offered == admitted + droppedFinal), every
 * refusal either schedules a retry or is final
 * (dropped == retried + droppedFinal), and every presentation is a
 * trace arrival or a retry (offered + retried == admitted + dropped);
 * without retries, dropped == droppedFinal and the historical
 * offered == admitted + dropped holds unchanged. The goodput and
 * per-class fields cover measured (post-warmup) queries and are only
 * populated when OverloadConfig::deadlineSeconds > 0.
 */
struct OverloadStats : ClassOverloadStats
{
    /**
     * Per-priority-class accounting, indexed by effective class
     * (sized OverloadConfig::priorityClasses when deadline accounting
     * is on; empty otherwise). Every slice field sums to the matching
     * inherited total; with one class, perClass[0] mirrors the totals.
     */
    std::vector<ClassOverloadStats> perClass;

    /** Trace indices of *finally* dropped queries (empty when
     *  disabled; in decision order — sorted only without retries). */
    std::vector<uint64_t> droppedQueries;

    /** Degraded admissions in decision order (empty when disabled; a
     *  retried query may appear once per degraded presentation). A
     *  run takes at most kMaxTraceQueries queries, so each record
     *  holds its trace index in 32 bits. */
    std::vector<DegradeRecord> degradedQueries;

    /** Degraded fraction of admitted queries, in [0, 1]. */
    double
    degradeRate() const
    {
        return admitted > 0
            ? static_cast<double>(degraded) /
                  static_cast<double>(admitted)
            : 0.0;
    }
};

/**
 * The router-side overload controller: built once per tier, then
 * consulted at every arrival. See the file comment for the estimation
 * and decision rules.
 */
class AdmissionController
{
  public:
    /**
     * @param config the overload policy (copied; validated by
     *        validateClusterConfig)
     * @param machines the tier's machine configs, read by reference
     *        for pricing: they must outlive the controller
     * @param embeddingShare the fraction of a query's embedding work
     *        a single machine serves — 1.0 for whole-query tiers; a
     *        sharded tier passes its per-machine share so heavy
     *        queries are not priced as if served unsharded
     * @param network the tier's hop model, so response-time estimates
     *        price the forward/embedding/return hops a query pays
     *        (default: the historical zero-cost router)
     * @param join the tier's join model — under TwoStage (the
     *        default) a sharded query's estimate prices the leader's
     *        second queue visit for the dense phase
     */
    AdmissionController(const OverloadConfig& config,
                        const std::vector<SimConfig>& machines,
                        double embeddingShare = 1.0,
                        const NetworkConfig& network = {},
                        JoinModel join = JoinModel::TwoStage);

    /** A temporary machine list would dangle. */
    AdmissionController(const OverloadConfig&, std::vector<SimConfig>&&,
                        double = 1.0, const NetworkConfig& = {},
                        JoinModel = JoinModel::TwoStage) = delete;

    /**
     * Decide @p query's fate against the live @p view, in which at
     * least one machine accepts: admit as-is, admit degraded, or
     * drop. Pure — equal (query, view state) pairs produce equal
     * decisions.
     */
    AdmissionDecision decide(const Query& query,
                             const ClusterView& view) const;

    /**
     * Estimated seconds for machine @p m to drain its queue (0 when
     * idle): its queued and committed join-phase work, as the engine
     * priced it, drained across the core pool.
     */
    double backlogSeconds(size_t m, const ClusterView& view) const;

    /** Mean backlogSeconds over accepting machines — the backlog a
     *  load-balanced router actually lands on. */
    double meanBacklogSeconds(const ClusterView& view) const;

    /**
     * Total projected queue-wait seconds of the critical path: mean
     * accepting backlog on an unsharded tier; the worst accepting
     * backlog on a sharded tier — **twice** under the TwoStage join,
     * since the query waits once for its fan-out parts and once more
     * when the leader's dense phase re-enters the queue (projected at
     * the current worst backlog — the steady-overload equilibrium the
     * admission loop itself maintains). This over the deadline is the
     * pressure signal of both admission and degrade.
     */
    double queueWaitSeconds(const ClusterView& view) const;

    const OverloadConfig& config() const { return cfg; }

  private:
    OverloadConfig cfg;

    /** The tier's machine configs (owned by the caller). */
    const std::vector<SimConfig>& machines_;

    /** Core count of machine @p m (backlog drains across the pool). */
    double
    coresOf(size_t m) const
    {
        return static_cast<double>(machines_[m].cores());
    }

    /**
     * Estimated service seconds of a @p size-sample part of the given
     * shape on machine @p m (batch-split across the core pool).
     */
    double partServiceSeconds(size_t m, uint32_t size,
                              double emb_fraction, bool include_dense,
                              uint32_t model = 0) const;

    /** Cheapest accepting machine's price for a part shape of mix
     *  model @p model; every machine binds the whole mix. */
    double bestServiceSeconds(const ClusterView& view, uint32_t size,
                              double emb_fraction, bool include_dense,
                              uint32_t model = 0) const;

    /** Worst accepting machine's backlogSeconds. */
    double worstBacklogSeconds(const ClusterView& view) const;

    /**
     * The service and network terms of the response estimate of a
     * @p size-sample query of mix model @p model (see the file
     * comment for the three shapes); queueWaitSeconds plus this
     * against the class budget is the deadline admission test.
     */
    double serviceAndHopSeconds(uint32_t size, const ClusterView& view,
                                uint32_t model = 0) const;

    /** Leader-side share of a query's embedding work, in (0, 1]. */
    double embShare = 1.0;

    /** Hop model of the tier (zero-cost by default). */
    NetworkConfig net;

    /** Join model of the tier (prices the second visit iff TwoStage). */
    JoinModel joinModel = JoinModel::TwoStage;
};

} // namespace deeprecsys

#endif // DRS_CLUSTER_ADMISSION_HH
