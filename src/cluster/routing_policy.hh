/**
 * @file
 * Pluggable query-routing policies for the cluster tier.
 *
 * A front-end router receives the global query stream and dispatches
 * each query to one of N heterogeneous serving machines. The policy
 * observes a narrow view of cluster state (per-machine in-flight
 * queries, queued work, accelerator presence, relative speed) and
 * returns a machine index. Implementations cover the classic
 * load-balancing spectrum — round-robin, uniform-random,
 * join-shortest-queue, power-of-two-choices — plus a size-aware policy
 * that steers the heavy tail of the query-size distribution (Figure 5)
 * to accelerator-equipped machines, and a shard-aware policy that
 * routes each query to machines holding (replicas of) its embedding
 * tables, fanning out over a set cover when no machine holds them all.
 *
 * Policies observe machine availability through
 * ClusterView::accepting(): under the elastic tier
 * (cluster/autoscaler.hh) the accepting set changes mid-run as
 * machines warm up or drain, and every policy routes only within it.
 * Static tiers accept everywhere, preserving historical behavior
 * bit-for-bit.
 *
 * Ownership: policies are stateful and single-run — build a fresh one
 * (same seed) per run to reproduce results. The shard-aware policy
 * keeps a reference to the ShardingConfig it was built from, which
 * must outlive it. Determinism: a policy's decisions are a pure
 * function of its seed and the observed view sequence.
 */

#ifndef DRS_CLUSTER_ROUTING_POLICY_HH
#define DRS_CLUSTER_ROUTING_POLICY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/shard_placement.hh"
#include "loadgen/query.hh"

namespace deeprecsys {

namespace obs { class RunObserver; }

/** The routing policies the cluster router can be configured with. */
enum class RoutingKind
{
    RoundRobin,
    UniformRandom,
    JoinShortestQueue,
    PowerOfTwoChoices,
    SizeAware,
    ShardAware,

    /**
     * Model-aware balancing for multi-model tiers: each query is
     * routed within its own model's replica set (the machines with a
     * binding for query.model) on that model's own load signal —
     * JSQ over per-model in-flight queries, or power-of-two-choices
     * over the same signal. On a single-model tier both degrade to
     * their classic counterparts' candidate sets (every machine
     * serves model 0), though ModelAwareJsq's signal differs from
     * JoinShortestQueue's (per-model in-flight vs in-flight+queued).
     */
    ModelAwareJsq,
    ModelAwarePo2c,
};

/** Name for printing. */
const char* routingKindName(RoutingKind kind);

/**
 * Every self-contained routing policy, in declaration order (for
 * sweeps). Excludes ShardAware, which cannot be built from a bare
 * RoutingSpec — it needs a ShardingConfig — and the model-aware
 * kinds, which only make sense against a multi-model view; generic
 * single-model sweeps over this list stay byte-identical.
 */
const std::vector<RoutingKind>& allRoutingKinds();

/**
 * What a routing policy may observe about the cluster. The cluster
 * event loop (ClusterLoop) is the one implementation and exposes
 * live queue and engine state.
 */
class ClusterView
{
  public:
    virtual ~ClusterView() = default;

    /** Number of machines behind the router. */
    virtual size_t numMachines() const = 0;

    /** Queries dispatched to machine @p m and not yet completed. */
    virtual size_t inFlightQueries(size_t m) const = 0;

    /** Work items (requests/queries) waiting in machine @p m's queues. */
    virtual size_t queuedWork(size_t m) const = 0;

    /**
     * Estimated service seconds of everything queued on machine @p m,
     * priced by the machine's own cost model
     * (MachineEngine::queuedCostSeconds) — the only estimate that is
     * honest about a heterogeneous queue of whole queries and shard
     * parts; the admission controller (cluster/admission.hh) prices
     * backlog with it. Views without engine state report 0.
     */
    virtual double queuedCostSeconds(size_t) const { return 0.0; }

    /**
     * Engine-exact committed second-visit work on machine @p m:
     * service seconds of the TwoStage dense join phases this machine
     * already owes for in-flight fanned-out queries it leads but has
     * not admitted to its queue yet — the window between fan-out
     * dispatch and the last pooled part landing, during which the
     * queue-cost sum cannot see the phase. A new arrival queues
     * behind this work too, so the admission controller adds it to
     * its backlog estimate (the second-order term of the two-stage
     * critical path). Views without driver state report 0.
     */
    virtual double pendingJoinCostSeconds(size_t) const { return 0.0; }

    /** True when machine @p m has an attached accelerator. */
    virtual bool hasGpu(size_t m) const = 0;

    /** Relative machine speed (1.0 nominal; > 1.0 is faster). */
    virtual double speedFactor(size_t m) const = 0;

    /**
     * True when machine @p m accepts new queries. Statically
     * provisioned tiers accept everywhere (the default); the elastic
     * tier (cluster/autoscaler.hh) excludes machines that are powered
     * off, still warming up, or draining toward removal. Policies
     * must never route to a non-accepting machine; at least one
     * machine always accepts.
     */
    virtual bool accepting(size_t) const { return true; }

    /**
     * True when every machine is accepting — the static-tier fast
     * path. Policies that would otherwise build a candidate list per
     * decision check this first and keep their historical O(1)-probe
     * hot path; views with live machine-set state override it with a
     * maintained counter, never an O(n) scan.
     */
    virtual bool allAccepting() const { return true; }

    // ------------------------------------------------- per-model view
    // The multi-model tier's slice of the same signals, consumed by
    // the model-aware policies and the per-model admission pricing.
    // Single-model views keep the defaults: one model, served
    // everywhere, whose slice IS the total.

    /** True when machine @p m has a binding for mix model @p model. */
    virtual bool
    servesModel(size_t, uint32_t model) const
    {
        return model == 0;
    }

    /** Mix model @p model's share of inFlightQueries(@p m). */
    virtual size_t
    inFlightQueriesOfModel(size_t m, uint32_t) const
    {
        return inFlightQueries(m);
    }
};

/**
 * One machine's share of a (possibly fanned-out) query. A whole-query
 * dispatch is a single part with embFraction 1 on the leader; a
 * sharded dispatch is one part per machine of the covering set, the
 * leader doing the dense/sequence compute plus its local embedding
 * lookups and every other part only its local lookups.
 */
struct ShardTarget
{
    uint32_t machine = 0;

    /** Share of the query's embedding work resident here, in (0, 1]. */
    double embFraction = 1.0;

    /** The leader also runs the dense + interaction + predict stacks. */
    bool leader = false;

    /**
     * The tables this part covers (shard-aware fan-out only; empty
     * for single-hop and whole-query dispatches). Hedged requests use
     * it to find another replica able to serve the same share.
     */
    std::vector<uint32_t> tables;
};

/**
 * A stateful routing decision function. Policies own their random
 * streams so a fresh policy with the same seed reroutes a trace
 * identically.
 */
class RoutingPolicy
{
  public:
    virtual ~RoutingPolicy() = default;

    /** Choose the machine that will serve @p query. */
    virtual size_t route(const Query& query, const ClusterView& view) = 0;

    /**
     * Full dispatch plan for @p query: which machines serve it and
     * what share of the work each takes. The default wraps route()
     * into one whole-query part; only shard-aware policies fan out.
     * Parts are distinct machines and exactly one part leads. An
     * *empty* plan means no accepting replica set covers the query —
     * only possible under fault injection when machines are down;
     * fault-aware drivers treat it as unservable (the query fails
     * over or is lost) and fault-free runs never see it.
     */
    virtual std::vector<ShardTarget>
    routeParts(const Query& query, const ClusterView& view)
    {
        ShardTarget whole;
        whole.machine = static_cast<uint32_t>(route(query, view));
        whole.embFraction = 1.0;
        whole.leader = true;
        return {whole};
    }

    /** The policy family. */
    virtual RoutingKind kind() const = 0;

    /** Printable policy name. */
    const char* name() const { return routingKindName(kind()); }

    /**
     * Attach an observability recorder (nullptr detaches). Policies
     * with per-decision insight worth recording — today the
     * shard-aware policy's per-table load — report through it; the
     * default ignores the observer. Borrowed: the observer must
     * outlive the policy's routing calls. Drivers attach their own
     * observer at run start.
     */
    virtual void attachObserver(obs::RunObserver*) {}
};

/** Configuration from which a concrete policy is built. */
struct RoutingSpec
{
    RoutingKind kind = RoutingKind::PowerOfTwoChoices;

    /** Seed of the policy's private random stream. */
    uint64_t seed = 0x5eedULL;

    /**
     * SizeAware only: queries of size >= threshold are steered to
     * accelerator-equipped machines.
     */
    uint32_t sizeThreshold = 256;
};

/**
 * Build a concrete policy. @p sharding may be null for every kind
 * except ShardAware, which cannot be built without one; when non-null
 * it must outlive the returned policy (the policy keeps a reference).
 */
std::unique_ptr<RoutingPolicy> makeRoutingPolicy(
    const RoutingSpec& spec, const ShardingConfig* sharding = nullptr);

} // namespace deeprecsys

#endif // DRS_CLUSTER_ROUTING_POLICY_HH
