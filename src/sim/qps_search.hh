/**
 * @file
 * Latency-bounded throughput measurement: the maximum sustainable
 * query arrival rate whose tail latency meets an SLA target (the
 * paper's QPS-under-p95 metric, Section III-B).
 *
 * Units: slaMs in milliseconds, rates in queries/second.
 * Determinism: findMaxQps is a pure function of its spec — the same
 * seeds re-time the same query population at every candidate rate,
 * keeping the bisection monotone and reproducible.
 */

#ifndef DRS_SIM_QPS_SEARCH_HH
#define DRS_SIM_QPS_SEARCH_HH

#include "loadgen/query_stream.hh"
#include "sim/rate_search.hh"
#include "sim/serving_sim.hh"

namespace deeprecsys {

/** Parameters of the max-QPS bisection. */
struct QpsSearchSpec
{
    double slaMs = 100.0;       ///< tail-latency target
    /** Which tail: p95, the paper's QPS-under-SLA metric. */
    static constexpr double percentile = 95.0;
    size_t numQueries = 3000;   ///< trace length per evaluation
    LoadSpec load;              ///< arrival/size config (qps overridden)
};

/** Outcome of a max-QPS search: the found rate, the simulation stats
 *  at it, and the candidates evaluated (see sim/rate_search.hh). */
using QpsSearchResult = RateSearchOutcome<SimResult>;

/**
 * Find the maximum Poisson arrival rate at which the simulated
 * machine's tail latency meets the SLA. The query population is drawn
 * once and re-timed per candidate rate; candidates are evaluated in
 * order on the calling thread. Deterministic: results are
 * bit-identical at every DRS_THREADS value.
 */
QpsSearchResult findMaxQps(const SimConfig& sim, const QpsSearchSpec& spec);

/** Evaluate one (policy, rate) point. */
SimResult evaluateAtQps(const SimConfig& sim, const LoadSpec& load,
                        double qps, size_t num_queries);

} // namespace deeprecsys

#endif // DRS_SIM_QPS_SEARCH_HH
