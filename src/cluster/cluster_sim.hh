/**
 * @file
 * Discrete-event simulator of a recommendation-serving cluster.
 *
 * One global query stream arrives at a front-end router that dispatches
 * each query to one of N heterogeneous serving machines via a pluggable
 * RoutingPolicy. Each machine behaves exactly like the single-machine
 * ServingSimulator: its scheduler policy either offloads a query whole
 * to its accelerator or splits it into per-request batches served by a
 * FIFO-fed core pool, with service times from the analytical cost
 * models. Machines differ in cost model, speed multiplier, accelerator
 * presence, and scheduler policy — the fleet tier the paper's Figures 7
 * and 13 study, with the router made explicit.
 *
 * Machine mechanics (queues, batch splitting, offload, utilization
 * integrals) come from the shared MachineEngine; routing, fan-out/join
 * and network hops from the cluster event loop (cluster_loop.hh),
 * which this facade runs under a fixed membership: every machine
 * accepts, and a crashed machine accepts again at repair. The elastic
 * tier (autoscaler.hh) runs the same loop. With one machine, no
 * sharding, and a zero NetworkConfig it is bit-identical to
 * ServingSimulator (tests/test_engine_diff.cc).
 *
 * When the cluster carries a ShardingConfig, a shard-aware policy may
 * fan a query out into parts, one per machine of a replica cover of
 * its embedding tables; each part pays a forward network hop and runs
 * its local share of the embedding work. The parts then join at the
 * leader: remote parts ship their pooled embeddings back to it, and
 * only then does the leader run the dense/interaction/predict stacks
 * as a second service phase, since the top MLP consumes the pooled
 * remote embeddings (network.hh). Whole-query dispatches pay a single
 * round trip, so a non-zero NetworkConfig prices the router tier even
 * without sharding.
 *
 * Units: all times in this header are **seconds** unless the member
 * name says otherwise (…Ms() accessors return milliseconds); memory is
 * in bytes. Ownership: ClusterSimulator copies its ClusterConfig
 * (including any ShardingConfig) at construction and run() results are
 * self-contained values. Determinism: run() is a pure function of
 * (trace, policy state) — fixed seeds reproduce every statistic
 * bit-for-bit; event ties are broken by insertion order.
 */

#ifndef DRS_CLUSTER_CLUSTER_SIM_HH
#define DRS_CLUSTER_CLUSTER_SIM_HH

#include <optional>
#include <vector>

#include "base/flat_book.hh"
#include "base/stats.hh"
#include "cluster/admission.hh"
#include "cluster/fault_plan.hh"
#include "cluster/model_mix.hh"
#include "cluster/network.hh"
#include "cluster/routing_policy.hh"
#include "cluster/shard_placement.hh"
#include "loadgen/query.hh"
#include "sim/serving_sim.hh"

namespace deeprecsys {

/** Configuration of a simulated cluster. */
struct ClusterConfig
{
    /** One SimConfig per machine (heterogeneous mix allowed). */
    std::vector<SimConfig> machines;

    /** Router->machine hop model (zero-cost by default). */
    NetworkConfig network;

    /** Read by nothing: kept only for perfbench's fleet_day, which
     *  writes it (see JoinModel); deleted with that write. */
    JoinModel join = JoinModel::TwoStage;

    /**
     * Embedding-shard placement of the served models. When set, the
     * placement must span exactly machines.size() machines, be
     * feasible, respect every machine's SimConfig::memoryBytes
     * budget, and carry one table namespace per served model (checked
     * fatally at construction). Shard-aware routing requires it;
     * other policies ignore it.
     */
    std::optional<ShardingConfig> sharding;

    /**
     * Overload control at the router (cluster/admission.hh): admission
     * policy, load shedding, and degraded serving. Disabled by default,
     * in which case the run is bitwise-identical to the historical
     * driver (tests/test_engine_diff.cc holds it to that).
     */
    OverloadConfig overload;

    /**
     * Deterministic fault injection (cluster/fault_plan.hh): seeded
     * crash and gray-failure schedules plus the failover budget.
     * Disabled by default, in which case every new code path is gated
     * off and runs are bitwise-identical to the fault-free driver.
     */
    FaultPlan faults;

    /**
     * Tail-at-scale hedged requests for fanned-out dispatches
     * (cluster/fault_plan.hh). Requires a sharded tier; only fan-out
     * embedding parts are hedged. Disabled by default.
     */
    HedgeConfig hedge;

    /**
     * The model mix a colocated tier serves (cluster/model_mix.hh):
     * Query::model indexes this vector, every machine must carry a
     * binding for every entry (colocatedMachine builds one), and
     * per-model statistics (ClusterResult::perModel) and SLA checks
     * key off it. Empty on single-model tiers, which skip the
     * per-model books. Traffic fractions must sum to 1; a sharded
     * tier needs one ShardingConfig::models namespace per entry (one
     * when the mix is empty).
     */
    std::vector<ModelMixEntry> modelMix;
};

/** Most machines a tier can hold: ClusterResult::partMachinesOfQuery
 *  stores machine ids 0..65535 in 16 bits. */
constexpr size_t kMaxClusterMachines = size_t{1} << 16;

/**
 * Check a tier's configuration, reporting the first error through
 * drs_fatal:
 *  - 1..kMaxClusterMachines machines, each valid for
 *    MachineEngine::validate (at least one binding, every binding's
 *    batch, offload and core count sound, a positive slowdown);
 *  - a priority-class count a query can carry;
 *  - a model mix of at most kMaxMixModels models whose fractions sum
 *    to 1 and that every machine binds in full;
 *  - on a sharded tier, a feasible placement over exactly the tier's
 *    machines within their memory budgets, and max(1, mix size)
 *    table namespaces that tile the placed tables in order;
 *  - a well-formed fault plan whose declared tolerance the
 *    placement's replication meets;
 *  - a hedge only on a sharded tier;
 *  - an enabled overload policy with at most
 *    OverloadConfig::maxPriorityClasses priority classes and, under
 *    deadline admission or degrade, a positive deadline.
 * @p tier names the tier in the message. Both cluster facades call it
 * at construction; the capacity planner reaches it through each
 * candidate tier's ClusterSimulator.
 */
void validateClusterConfig(const ClusterConfig& cfg, const char* tier);

/** Per-machine embedding-memory budgets (SimConfig::memoryBytes). */
std::vector<uint64_t> machineMemoryBudgets(
    const std::vector<SimConfig>& machines);

/** Per-machine outcome of one cluster run. */
struct MachineStats
{
    uint64_t queriesDispatched = 0;    ///< led from this machine
    uint64_t queriesCompleted = 0;     ///< finished (incl. warmup)
    uint64_t requestsDispatched = 0;   ///< CPU requests issued
    uint64_t remoteParts = 0;          ///< non-leader shard parts served
    uint64_t joinPhases = 0;           ///< join (dense) phases led here
    uint64_t embBytesStored = 0;       ///< resident embedding shards
    double busyCoreSeconds = 0;
    double gpuBusySeconds = 0;
    double cpuUtilization = 0;         ///< over the cluster event span
    double gpuUtilization = 0;
    SampleStats latencySeconds;        ///< measured queries only
};

/**
 * Per-model outcome of one multi-model run. The integer books obey
 * the same three-way conservation algebra as the fleet totals —
 * offered == completed + droppedFinal + lost, per model — and each
 * book sums exactly to its fleet counterpart across the mix (the
 * colocation property suite pins both).
 */
struct ModelStats
{
    uint64_t offered = 0;        ///< trace arrivals of this model
    uint64_t dispatched = 0;     ///< routed dispatches (incl. retries)
    uint64_t completed = 0;      ///< all completions (incl. warmup)
    uint64_t droppedFinal = 0;   ///< shed at the router, never served
    uint64_t lost = 0;           ///< destroyed by failures
    SampleStats latencySeconds;  ///< measured completions only

    /** This model's p99 latency in milliseconds. */
    double
    p99Ms() const
    {
        return latencySeconds.percentile(99) * 1e3;
    }

    /** This model's tail latency at a percentile, in milliseconds. */
    double
    tailMs(double pct) const
    {
        return latencySeconds.percentile(pct) * 1e3;
    }
};

/** Aggregate outcome of one cluster run. */
struct ClusterResult
{
    SampleStats fleetLatencySeconds;   ///< measured queries, all machines
    std::vector<MachineStats> perMachine;

    /** Leader machine per trace index (for conservation checks);
     *  queries shed at the router carry the droppedMachine sentinel
     *  and queries destroyed by a failure carry lostMachine. */
    std::vector<uint32_t> machineOfQuery;

    /** machineOfQuery value of a query shed at the router. */
    static constexpr uint32_t droppedMachine = UINT32_MAX;

    /** machineOfQuery value of a query destroyed by a failure. */
    static constexpr uint32_t lostMachine = UINT32_MAX - 1;

    /**
     * Every machine a part of each query was sent to, one row per
     * trace index, in creation order: the leader first, then its
     * fan-out parts, hedge twins and failover re-dispatches (each
     * re-dispatch again leader first). A query shed at the router or
     * unroutable on every presentation has an empty row. Machine
     * ids are stored in 16 bits (validateClusterConfig caps a tier
     * at kMaxClusterMachines) and read back as uint32_t; row(i) is
     * the stored ids and does not copy.
     */
    FlatBook<uint16_t, uint32_t> partMachinesOfQuery;

    uint64_t numQueries = 0;           ///< measured completions
    uint64_t numDispatched = 0;        ///< all routed queries
    uint64_t numCompleted = 0;         ///< all completed queries
    uint64_t numParts = 0;             ///< machine-parts dispatched

    /** Most query records the driver's QueryBook held at once, each
     *  with its parts: the queries a reader could still reach, and the
     *  pool slots the book ever allocated (exact per seed). */
    uint64_t peakHeldQueries = 0;

    /** Mean machines touched per query (1.0 without sharding). */
    double meanFanout = 0;
    double offeredQps = 0;             ///< from the global trace
    double achievedQps = 0;            ///< measured completions / span
    double spanSeconds = 0;            ///< measured arrival..completion
    double meanCpuUtilization = 0;     ///< average across machines

    /** Drop/degrade/goodput accounting (cluster/admission.hh). Count
     *  fields always reconcile with the fault books under the
     *  three-way algebra: offered == completed + droppedFinal + lost
     *  (assertFaultConservation in cluster/fault_plan.hh). */
    OverloadStats overload;

    /** Crash/failover/hedge accounting (cluster/fault_plan.hh); all
     *  zero when the run carries no FaultPlan and no HedgeConfig. */
    FaultStats faults;

    /** Per-mix-model books (one entry per ClusterConfig::modelMix
     *  entry; empty on single-model runs). */
    std::vector<ModelStats> perModel;

    /** Fleet-wide p95 latency in milliseconds. */
    double
    p95Ms() const
    {
        return fleetLatencySeconds.percentile(95) * 1e3;
    }

    /** Fleet-wide p99 latency in milliseconds. */
    double
    p99Ms() const
    {
        return fleetLatencySeconds.percentile(99) * 1e3;
    }

    /** Fleet-wide mean latency in milliseconds. */
    double meanMs() const { return fleetLatencySeconds.mean() * 1e3; }

    /** Fleet-wide tail latency at a percentile, in milliseconds. */
    double
    tailMs(double pct) const
    {
        return fleetLatencySeconds.percentile(pct) * 1e3;
    }
};

/**
 * Cluster simulator: a router in front of N machine models sharing one
 * event clock, so routing decisions see live queue state.
 */
class ClusterSimulator
{
  public:
    explicit ClusterSimulator(ClusterConfig config);

    /**
     * Run the global trace to completion, routing each query through
     * @p policy. The trace must be sorted by arrival time. The policy
     * is stateful; pass a fresh one (same seed) to reproduce a run.
     */
    ClusterResult run(const QueryTrace& trace, RoutingPolicy& policy) const;

    /** Convenience: build a fresh policy from @p spec, then run. */
    ClusterResult run(const QueryTrace& trace,
                      const RoutingSpec& spec) const;

    /**
     * Attach an observability recorder for subsequent runs (nullptr
     * detaches). Borrowed — the observer must outlive the run; it is
     * also attached to the routing policy for per-table load. The
     * disabled path costs one pointer test per hook site.
     */
    void setObserver(obs::RunObserver* observer) { obs_ = observer; }

    const ClusterConfig& config() const { return cfg; }

  private:
    ClusterConfig cfg;
    obs::RunObserver* obs_ = nullptr;
};

} // namespace deeprecsys

#endif // DRS_CLUSTER_CLUSTER_SIM_HH
