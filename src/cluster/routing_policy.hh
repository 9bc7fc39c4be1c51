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
 * On a colocated tier every machine binds every model of the mix
 * (validateClusterConfig), so the same policies route a query of any
 * model.
 *
 * ClusterView is the tier's one live state: a concrete class the
 * cluster event loop owns and writes, which policies read through
 * inline accessors. Policies observe machine availability through
 * ClusterView::accepting(): under the elastic tier
 * (cluster/autoscaler.hh) the accepting set changes mid-run as
 * machines warm up or drain, a crash takes a machine out of it on
 * either tier, and every policy routes only within it.
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

#include "base/logging.hh"
#include "cluster/shard_placement.hh"
#include "loadgen/query.hh"
#include "sim/machine_engine.hh"

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
};

/** Name for printing. */
const char* routingKindName(RoutingKind kind);

/**
 * Every self-contained routing policy, in declaration order (for
 * sweeps). Excludes ShardAware, which cannot be built from a bare
 * RoutingSpec — it needs a ShardingConfig.
 */
const std::vector<RoutingKind>& allRoutingKinds();

/**
 * The live state of a cluster tier, as the routing policies and the
 * admission controller read it at each arrival: per-machine work in
 * flight and queued, the accepting set, committed join-phase cost,
 * and what each machine is (accelerator, speed). Nothing is kept per
 * model: every machine serves the whole mix. The cluster event loop
 * (ClusterLoop) owns one and writes it where work is dispatched and
 * finishes and where machines enter or leave the accepting set. Tests
 * build one directly and queue work through engine(m).admit, as the
 * loop does. Every read is inline and non-virtual.
 */
class ClusterView
{
  public:
    /**
     * A tier of @p machines: one engine per machine, each with its
     * clock at 0. Every machine accepts and nothing is in flight.
     * @p machines must outlive the view.
     */
    explicit ClusterView(const std::vector<SimConfig>& machines);

    /** The engines point into @p machines: a temporary would dangle. */
    ClusterView(std::vector<SimConfig>&&) = delete;

    /** Number of machines behind the router. */
    size_t numMachines() const { return engines_.size(); }

    /**
     * Work dispatched to machine @p m and not yet finished, counted
     * in parts: a whole query, a shard part or a join phase.
     */
    size_t inFlightQueries(size_t m) const { return inFlight_[m]; }

    /** Work items (requests/queries) waiting in machine @p m's queues. */
    size_t queuedWork(size_t m) const { return engines_[m].queuedWork(); }

    /**
     * Estimated service seconds of everything queued on machine @p m,
     * priced by the machine's own cost model
     * (MachineEngine::queuedCostSeconds) — the only estimate that is
     * honest about a heterogeneous queue of whole queries and shard
     * parts; the admission controller (cluster/admission.hh) prices
     * backlog with it.
     */
    double
    queuedCostSeconds(size_t m) const
    {
        return engines_[m].queuedCostSeconds();
    }

    /**
     * Engine-exact committed second-visit work on machine @p m:
     * service seconds of the dense join phases this machine
     * already owes for in-flight fanned-out queries it leads but has
     * not admitted to its queue yet — the window between fan-out
     * dispatch and the last pooled part landing, during which the
     * queue-cost sum cannot see the phase. A new arrival queues
     * behind this work too, so the admission controller adds it to
     * its backlog estimate (the second-order term of the two-stage
     * critical path). 0 unless the loop tracks it (tiers with
     * overload control).
     */
    double pendingJoinCostSeconds(size_t m) const { return joinCost_[m]; }

    /** True when machine @p m has an enabled accelerator. */
    bool hasGpu(size_t m) const { return gpu_[m] != 0; }

    /** Relative machine speed, 1 / SimConfig::slowdown (> 1.0 is
     *  faster). */
    double speedFactor(size_t m) const { return speed_[m]; }

    /**
     * Load signal of the queue-aware policies: outstanding work
     * normalized by machine speed, so a 2x-slower machine at equal
     * depth looks twice as loaded (shortest-expected-delay routing).
     */
    double
    loadSignal(size_t m) const
    {
        return static_cast<double>(inFlightQueries(m) + queuedWork(m)) /
            speedFactor(m);
    }

    /**
     * True when machine @p m accepts new queries. A static tier
     * accepts everywhere but on crashed machines; the elastic tier
     * (cluster/autoscaler.hh) also excludes machines that are powered
     * off, still warming up, or draining toward removal. Policies
     * never route to a non-accepting machine. Under fault injection
     * no machine may accept; the loop then routes nothing.
     */
    bool accepting(size_t m) const { return accepting_[m] != 0; }

    /** Number of accepting machines. */
    size_t acceptingCount() const { return acceptingCount_; }

    /**
     * True when every machine is accepting — the static-tier fast
     * path. Policies that would otherwise build a candidate list per
     * decision check this first and keep their O(1)-probe hot path.
     */
    bool allAccepting() const { return acceptingCount_ == numMachines(); }

    // ------------------------------------------------------ writes
    /** Machine @p m's engine: the loop (and tests) admit work here. */
    MachineEngine& engine(size_t m) { return engines_[m]; }

    /** Add machine @p m to, or remove it from, the accepting set. */
    void
    setAccepting(size_t m, bool on)
    {
        if (accepting(m) != on) {
            accepting_[m] = on;
            on ? acceptingCount_++ : acceptingCount_--;
        }
    }

    /** A part was dispatched to machine @p m. */
    void flightAdd(size_t m) { inFlight_[m]++; }

    /** A part left machine @p m; @p what names the caller in the
     *  underflow panic. */
    void
    flightSub(size_t m, const char* what)
    {
        drs_assert(inFlight_[m] > 0, what);
        inFlight_[m]--;
    }

    /** Add @p seconds (negative to release) to machine @p m's
     *  committed join-phase cost. */
    void addJoinCost(size_t m, double seconds) { joinCost_[m] += seconds; }

  private:
    std::vector<MachineEngine> engines_;
    std::vector<size_t> inFlight_;
    std::vector<double> joinCost_;
    std::vector<uint8_t> accepting_;
    size_t acceptingCount_ = 0;
    std::vector<uint8_t> gpu_;
    std::vector<double> speed_;
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
 * The single-hop replica for a query touching @p tables on a sharded
 * tier: among the accepting holders of its least-replicated table
 * (ShardPlacement::fewestHolders) that hold every other table, the one
 * with the lowest load signal, ties to the lowest index, never
 * @p skip. Returns view.numMachines() when there is none. ShardAware
 * routing keeps a query single-hop on it; a hedge duplicates a part
 * onto it, skipping the part's own machine.
 */
size_t singleHopReplica(const ClusterView& view,
                        const ShardPlacement& placement,
                        const std::vector<uint32_t>& tables,
                        size_t skip = SIZE_MAX);

/**
 * Build a concrete policy. @p sharding may be null for every kind
 * except ShardAware, which cannot be built without one; when non-null
 * it must outlive the returned policy (the policy keeps a reference).
 */
std::unique_ptr<RoutingPolicy> makeRoutingPolicy(
    const RoutingSpec& spec, const ShardingConfig* sharding = nullptr);

} // namespace deeprecsys

#endif // DRS_CLUSTER_ROUTING_POLICY_HH
