#include "cluster_qps_search.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "sim/rate_search.hh"

namespace deeprecsys {

bool
meetsPerModelSla(const ClusterResult& r,
                 const std::vector<ModelMixEntry>& mix, double pct)
{
    for (size_t k = 0; k < mix.size(); ++k) {
        if (mix[k].slaMs <= 0.0)
            continue;
        if (k >= r.perModel.size() ||
            r.perModel[k].tailMs(pct) > mix[k].slaMs)
            return false;
    }
    return true;
}

size_t
clusterTraceLength(const ClusterConfig& cluster, const ClusterQpsSpec& spec)
{
    if (spec.numQueries > 0)
        return spec.numQueries;
    return std::max<size_t>(3000, 300 * cluster.machines.size());
}

ClusterResult
evaluateClusterAtQps(const ClusterConfig& cluster, const ClusterQpsSpec& spec,
                     double qps)
{
    const size_t num_queries = clusterTraceLength(cluster, spec);
    const ClusterSimulator sim(cluster);
    if (!cluster.modelMix.empty()) {
        MixedTraceTemplate mixed(spec.load, mixFractions(cluster.modelMix));
        mixed.ensure(num_queries);
        return sim.run(mixed.materialize(qps, num_queries), spec.routing);
    }
    LoadSpec load = spec.load;
    load.qps = qps;
    QueryStream stream(load);
    return sim.run(stream.generate(num_queries), spec.routing);
}

ClusterQpsResult
findClusterMaxQps(const ClusterConfig& cluster, const ClusterQpsSpec& spec)
{
    if (!(spec.slaMs > 0.0))
        drs_fatal("SLA target must be positive");

    // Drawn once, re-timed per candidate rate (bit-identical to
    // regenerating); the simulator is built once and shared — run()
    // is const and the routing policy is rebuilt per evaluation. A
    // multi-model tier draws its mixed trace instead (per-model
    // substreams, merged by arrival) and a rate is feasible only if
    // the fleet tail AND every per-model SLA hold — the consolidated
    // tier is provisioned for its most demanding tenant.
    const size_t num_queries = clusterTraceLength(cluster, spec);
    const bool mixOn = !cluster.modelMix.empty();
    TraceTemplate trace_template(spec.load);
    MixedTraceTemplate mixed_template(
        spec.load, mixOn ? mixFractions(cluster.modelMix)
                         : std::vector<double>{1.0});
    if (mixOn)
        mixed_template.ensure(num_queries);
    else
        trace_template.ensure(num_queries);
    const ClusterSimulator sim(cluster);

    auto eval = [&](double qps) -> std::pair<ClusterResult, bool> {
        const QueryTrace trace = mixOn
            ? mixed_template.materialize(qps, num_queries)
            : trace_template.materialize(qps, num_queries);
        ClusterResult r = sim.run(trace, spec.routing);
        const bool meets = r.tailMs(spec.percentile) <= spec.slaMs &&
            meetsPerModelSla(r, cluster.modelMix, spec.percentile);
        return {std::move(r), meets};
    };

    // The probe starts at the per-machine rung times the machine count
    // so small clusters don't waste rounds.
    const RateSearchKnobs knobs{
        .qpsFloor = 1.0,
        .qpsCeiling = 4e6,
        .relTolerance = 0.02,
        .growthStart = 64.0 * static_cast<double>(cluster.machines.size())};

    RateSearchOutcome<ClusterResult> found =
        findMaxRateUnderSla<ClusterResult>(eval, knobs);

    ClusterQpsResult result;
    result.maxQps = found.maxRate;
    result.atMax = std::move(found.atMax);
    result.evaluations = found.evaluations;
    return result;
}

} // namespace deeprecsys
