/**
 * @file
 * The model mix of a multi-model (colocated) serving tier.
 *
 * A datacenter recommendation fleet does not run one model: the eight
 * Table-1 workloads coexist, and consolidating several of them onto
 * one heterogeneous tier trades isolation for machines. This header
 * owns the mix description — which models, what share of traffic each
 * receives, and each model's own tail-latency target — plus the
 * builders that turn a mix into machine configs (one binding per
 * model on every machine) and into a sharded-tier table space where
 * each model's embedding tables live in their own namespace.
 *
 * Conventions: mix entry k becomes binding k of every machine
 * (SimConfig::bindings) and table namespace k of a sharded tier
 * (ShardingConfig::models), so a single-model tier is a 1-entry mix
 * and its builders give exactly the one-binding machine and the
 * one-namespace sharding. Traffic fractions must sum to 1. A slaMs of
 * 0 means "no per-model target" (the fleet-wide SLA still applies).
 *
 * Determinism: builders are pure functions of their inputs; per-model
 * table namespaces derive their working-set seeds via
 * modelSubstreamSeed, so adding a model to a mix never perturbs
 * another model's table draws.
 */

#ifndef DRS_CLUSTER_MODEL_MIX_HH
#define DRS_CLUSTER_MODEL_MIX_HH

#include <vector>

#include "cluster/shard_placement.hh"
#include "models/model_config.hh"
#include "sim/machine_engine.hh"

namespace deeprecsys {

/** One model of a colocated tier's mix. */
struct ModelMixEntry
{
    ModelId id = ModelId::DlrmRmc1;

    /** Share of the tier's query stream this model receives. */
    double trafficFraction = 1.0;

    /**
     * This model's own tail-latency target in milliseconds; a run is
     * SLA-feasible only if every model with a positive target meets
     * it. 0 disables the per-model check (fleet target still holds).
     */
    double slaMs = 0.0;

    /** Batch/offload policy of this model's binding on the tier. */
    SchedulerPolicy policy;
};

/** The traffic fractions of @p mix, in mix order; {1.0} for an empty
 *  mix, whose tier serves one model. */
std::vector<double> mixFractions(const std::vector<ModelMixEntry>& mix);

/** Entry with the model's published SLA at @p tier filled in. */
ModelMixEntry makeMixEntry(ModelId id, double traffic_fraction,
                           SlaTier tier = SlaTier::Medium);

/**
 * One machine serving every model of @p mix on @p platform: entry k
 * becomes binding k, all sharing the machine's core pool and
 * @p memory_bytes budget. Entries with gpuEnabled policies get a
 * GTX-1080Ti-class accelerator model. An empty mix is fatal.
 */
SimConfig colocatedMachine(const std::vector<ModelMixEntry>& mix,
                           const CpuPlatform& platform,
                           uint64_t memory_bytes = 0);

/**
 * Sharded-tier table space of a colocated mix: each model's embedding
 * tables (embeddingTables of its ModelConfig) are concatenated into
 * one global id space — model k's tables at [base_k, base_k + n_k) —
 * placed together under @p placement and the per-machine budgets
 * @p budget_bytes. Popularity is weighted by traffic fraction and
 * renormalized over the combined set, so the placement strategies see
 * how often each table is actually touched across the whole mix. The
 * returned config carries one ModelTableSpace per mix entry (each
 * with @p tables_per_query working-set draws in its own namespace,
 * seeded per model) — what ShardAware routing needs to keep two
 * models' tables from ever aliasing. An empty mix is fatal.
 */
ShardingConfig colocatedSharding(const std::vector<ModelMixEntry>& mix,
                                 const std::vector<uint64_t>& budget_bytes,
                                 const PlacementSpec& placement,
                                 uint32_t tables_per_query,
                                 double zipf_s = 1.1);

} // namespace deeprecsys

#endif // DRS_CLUSTER_MODEL_MIX_HH
