/**
 * @file
 * Cluster-level latency-bounded throughput: the maximum *global* query
 * arrival rate a cluster sustains while its fleet-wide tail latency
 * meets an SLA target. Lifts the paper's single-machine QPS-under-SLA
 * metric (Section III-B) to the tier a datacenter service actually
 * provisions, following the QpsSearchSpec bisection pattern of
 * sim/qps_search.hh. Sharded tiers are searched the same way: the
 * ClusterConfig carries the placement and network hop model, so a
 * ShardAware RoutingSpec prices fan-out/join into the found rate.
 *
 * Multi-model tiers (ClusterConfig::modelMix non-empty) draw the
 * mixed trace — per-model substreams split by traffic fraction and
 * merged by arrival — and tighten feasibility: a candidate rate
 * passes only if the fleet-wide tail meets spec.slaMs AND every mix
 * entry with a positive slaMs meets its own per-model tail target, so
 * the found rate is what the consolidated tier sustains without
 * violating any tenant's SLA.
 *
 * Every evaluation draws the default LoadSpec stream at its candidate
 * rate.
 *
 * Units: slaMs in milliseconds, rates in queries/second. Determinism:
 * the same seeds re-time the same query population at every candidate
 * rate and the routing policy is rebuilt from its seed per
 * evaluation, so the search is reproducible bit-for-bit. The search
 * runs serially on the calling thread (sim/rate_search.hh); callers
 * parallelize across independent searches.
 */

#ifndef DRS_CLUSTER_CLUSTER_QPS_SEARCH_HH
#define DRS_CLUSTER_CLUSTER_QPS_SEARCH_HH

#include "cluster/cluster_sim.hh"
#include "loadgen/query_stream.hh"
#include "sim/rate_search.hh"

namespace deeprecsys {

/** Parameters of the cluster max-QPS bisection. */
struct ClusterQpsSpec
{
    double slaMs = 100.0;       ///< fleet-wide tail-latency target

    /** Which tail: p99, the fleet metric. */
    static constexpr double percentile = 99.0;

    /**
     * Global trace length per evaluation; 0 picks
     * max(3000, 300 * machines) so every machine sees enough queries.
     */
    size_t numQueries = 0;

    RoutingSpec routing;        ///< router policy under test
};

/** Outcome of a cluster max-QPS search: the found rate, the cluster
 *  stats at it, and the candidates evaluated (see
 *  sim/rate_search.hh). */
using ClusterQpsResult = RateSearchOutcome<ClusterResult>;

/**
 * Per-model SLA feasibility of one evaluated run: every mix entry
 * with a positive slaMs must meet its own tail target at @p pct.
 * Vacuously true on single-model runs (empty mix), so fleet-only
 * feasibility tests are unchanged there. Shared by the QPS search and
 * the capacity planner.
 */
bool meetsPerModelSla(const ClusterResult& r,
                      const std::vector<ModelMixEntry>& mix, double pct);

/** Effective trace length for one evaluation of @p spec. */
size_t clusterTraceLength(const ClusterConfig& cluster,
                          const ClusterQpsSpec& spec);

/** Evaluate one (cluster, routing, rate) point with a fresh policy.
 *  Fatal unless @p qps is positive. */
ClusterResult evaluateClusterAtQps(const ClusterConfig& cluster,
                                   const ClusterQpsSpec& spec, double qps);

/**
 * Find the maximum global arrival rate at which the cluster's
 * fleet-wide tail latency meets the SLA — and, on a multi-model tier,
 * every mix entry with a positive slaMs meets its own per-model tail
 * target. Deterministic: the same seeds re-time the same query
 * population at every candidate rate, and the routing policy is
 * rebuilt from its seed per evaluation.
 */
ClusterQpsResult findClusterMaxQps(const ClusterConfig& cluster,
                                   const ClusterQpsSpec& spec);

} // namespace deeprecsys

#endif // DRS_CLUSTER_CLUSTER_QPS_SEARCH_HH
