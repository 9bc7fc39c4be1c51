/**
 * @file
 * Embedding-shard placement across the cluster tier.
 *
 * At-scale recommendation models are memory bound: the embedding
 * tables of one model run to gigabytes (Table I), and a real fleet
 * cannot hold a full replica on every machine. Capacity-driven
 * scale-out (Lui et al., "Understanding Capacity-Driven Scale-Out
 * Neural Recommendation Inference") shards tables across machines
 * under a per-machine memory budget and pays a multi-hop latency tax
 * whenever a query's tables span machines. This header models that
 * decision: which tables live where (ShardPlacement), which tables a
 * query touches (tablesOfQuery), and the strategies that trade memory
 * per machine against fan-out — greedy-by-size bin packing,
 * round-robin striping, and hot/cold replication that keeps popular
 * tables on every machine so only the cold tail pays remote hops.
 *
 * Units: table and budget sizes are in **bytes**; popularity weights
 * are dimensionless and sum to 1 across a table set.
 *
 * Ownership: ShardPlacement is a plain value type — build() returns
 * it by value and it owns all of its vectors; nothing here keeps
 * references to caller data.
 *
 * Determinism: placement is a pure function of (tables, budgets,
 * spec); tablesOfQuery is a pure function of (query id, spec). Equal
 * inputs give bit-identical outputs on every platform, so cluster
 * runs over sharded configurations reproduce exactly.
 */

#ifndef DRS_CLUSTER_SHARD_PLACEMENT_HH
#define DRS_CLUSTER_SHARD_PLACEMENT_HH

#include <cstdint>
#include <vector>

#include "models/model_config.hh"

namespace deeprecsys {

/** One embedding table as the placement tier sees it. */
struct EmbeddingTableInfo
{
    uint32_t id = 0;          ///< dense index within the model
    uint64_t bytes = 0;       ///< full logical storage of the table
    double popularity = 0.0;  ///< access weight (sums to 1 over a set)
};

/**
 * The embedding tables of a model, with Zipf(@p zipf_s) popularity
 * over the table index (table 0 hottest). Covers the regular tables
 * plus the behavior table of the attention/recurrent models. A
 * @p zipf_s of 0 gives uniform popularity.
 */
std::vector<EmbeddingTableInfo> embeddingTables(const ModelConfig& cfg,
                                                double zipf_s = 1.1);

/** How tables are assigned to machines. */
enum class PlacementStrategy
{
    /** Largest table first onto the machine with the most free bytes
     *  (LPT bin packing); one copy of each table. */
    GreedyBySize,

    /** Table i onto machine i mod M (next fitting machine when the
     *  budget is short); one copy of each table. */
    RoundRobin,

    /** Replicate the most popular tables onto every machine within a
     *  budget fraction, then greedy-place the cold remainder with one
     *  copy each. Popular tables never force a remote hop. */
    HotColdReplicated,
};

/** Name for printing. */
const char* placementStrategyName(PlacementStrategy strategy);

/** Every placement strategy, in declaration order (for sweeps). */
const std::vector<PlacementStrategy>& allPlacementStrategies();

/** Parameters of a placement build. */
struct PlacementSpec
{
    PlacementStrategy strategy = PlacementStrategy::GreedyBySize;

    /**
     * HotColdReplicated only: fraction of each machine's budget
     * reserved for replicated hot tables. Replication stops at the
     * first table that would overflow this reserve on any machine.
     */
    double hotReplicaFraction = 0.5;

    /**
     * Replication-for-availability floor: after the strategy runs,
     * every table is replicated onto additional machines (most free
     * bytes first) until it has this many copies or no machine fits
     * another. 1 (the default) keeps historical single-copy behavior.
     * Best-effort — callers that *require* the floor check
     * replicatedFor() afterwards; fault-aware drivers refuse
     * placements below FaultPlan::faultTolerance.
     */
    uint32_t minReplicas = 1;
};

/**
 * An assignment of embedding tables to machines, kept once as two
 * ascending holder lists: the tables on each machine and the machines
 * holding each table. Per-table questions walk the holders of the
 * tables asked about, so the router's per-query work is O(tables
 * touched x replicas): independent of the machine count when tables
 * have a few replicas each, and a walk of the whole tier only when
 * every table the query touches is on every machine.
 */
class ShardPlacement
{
  public:
    ShardPlacement() = default;

    /**
     * Place @p tables onto machines with per-machine byte budgets
     * @p budget_bytes (0 entries mean unconstrained). Infeasible
     * placements (some table fits no machine) return with feasible()
     * false and that table unassigned; feasible placements assign
     * every table at least once and never exceed any budget.
     */
    static ShardPlacement build(const std::vector<EmbeddingTableInfo>& tables,
                                const std::vector<uint64_t>& budget_bytes,
                                const PlacementSpec& spec);

    /** True when every table landed on at least one machine. */
    bool feasible() const { return feasible_; }

    /** Number of machines the placement spans. */
    size_t numMachines() const { return bytesOnMachine_.size(); }

    /** Number of distinct tables placed (or attempted). */
    size_t numTables() const { return machinesOfTable_.size(); }

    /** Bytes of embedding storage resident on machine @p m. */
    uint64_t bytesOnMachine(size_t m) const { return bytesOnMachine_[m]; }

    /** Tables resident on machine @p m, ascending by table id. */
    const std::vector<uint32_t>&
    tablesOnMachine(size_t m) const
    {
        return tablesOnMachine_[m];
    }

    /** Machines holding a replica of table @p t, ascending. */
    const std::vector<uint32_t>&
    machinesOfTable(uint32_t t) const
    {
        return machinesOfTable_[t];
    }

    /** The holders of whichever table in @p tables has the fewest
     *  (the first such table on ties). Every machine that holds all of
     *  @p tables is on it; @p tables must not be empty. */
    const std::vector<uint32_t>&
    fewestHolders(const std::vector<uint32_t>& tables) const;

    /** True when machine @p m holds a replica of table @p t: a binary
     *  search of tablesOnMachine(m). */
    bool holds(size_t m, uint32_t t) const;

    /** True when machine @p m holds every table in @p tables: one
     *  holds() per table. */
    bool holdsAll(size_t m, const std::vector<uint32_t>& tables) const;

    /** Total replicas across machines (= numTables when single-copy). */
    uint64_t totalReplicas() const;

    /** Replica count of the least-replicated table (0 when a table is
     *  unplaced or the placement is empty). */
    uint32_t minReplication() const;

    /**
     * Availability validator: true when every table has at least
     * @p required replicas (vacuously true at 0). A placement below a
     * tier's FaultPlan::faultTolerance loses data — and queries — on
     * the first crash of the wrong machine, so fault-aware drivers
     * refuse to run one.
     */
    bool
    replicatedFor(uint32_t required) const
    {
        return minReplication() >= required;
    }

    /** The spec the placement was built from. */
    const PlacementSpec& spec() const { return spec_; }

  private:
    bool assign(uint32_t table, size_t machine, uint64_t bytes,
                const std::vector<uint64_t>& budgets);

    PlacementSpec spec_;
    bool feasible_ = false;
    std::vector<uint64_t> bytesOnMachine_;
    std::vector<std::vector<uint32_t>> tablesOnMachine_;
    std::vector<std::vector<uint32_t>> machinesOfTable_;
};

/**
 * Which tables a query touches. Real requests do not activate every
 * sparse feature: each query draws a working set of
 * @p tablesPerQuery distinct tables, weighted by the same Zipf
 * popularity the placement strategies see, keyed deterministically by
 * the query id (equal ids always touch equal tables).
 */
struct TableSetSpec
{
    uint32_t numTables = 0;       ///< total tables of the model
    /** Working-set size, clamped to numTables; 0 = every table (the
     *  DLRM worst case: each sample looks up each table). */
    uint32_t tablesPerQuery = 0;
    double zipfS = 1.1;           ///< popularity skew (0 = uniform)
    uint64_t seed = 0x7ab1e5ULL;  ///< salt of the per-query hash
};

/** Zipf popularity weights over @p num_tables indices (sum to 1). */
std::vector<double> tablePopularity(uint32_t num_tables, double zipf_s);

/**
 * The table working set of query @p query_id under @p spec: a sorted
 * set of distinct table ids. @p popularity is
 * tablePopularity(spec.numTables, spec.zipfS), computed once by the
 * caller. Pure function of its arguments.
 */
std::vector<uint32_t> tablesOfQuery(uint64_t query_id,
                                    const TableSetSpec& spec,
                                    const std::vector<double>& popularity);

/**
 * One model's namespace within a multi-model sharded tier: its own
 * working-set spec (seeded per model so two models' draws are
 * independent) and the offset of its tables within the concatenated
 * table id space the placement was built over. Query-time table ids
 * are drawn in the model's local space and shifted by @p base, so two
 * colocated models never alias each other's tables.
 */
struct ModelTableSpace
{
    TableSetSpec set;
    uint32_t base = 0;   ///< first global table id of this model
};

/**
 * Everything the cluster tier needs to serve a sharded model: the
 * table-to-machine assignment and the per-query working-set model.
 *
 * Multi-model tiers additionally carry one ModelTableSpace per mix
 * model; entry k namespaces mix model k's tables within the combined
 * placement (tableSet then describes the concatenated space). Empty
 * on every single-model tier — the historical configuration.
 */
struct ShardingConfig
{
    ShardPlacement placement;
    TableSetSpec tableSet;
    std::vector<ModelTableSpace> models = {};
};

} // namespace deeprecsys

#endif // DRS_CLUSTER_SHARD_PLACEMENT_HH
