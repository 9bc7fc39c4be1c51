#include "cluster_qps_search.hh"

#include <algorithm>
#include <utility>

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
    MixedTraceTemplate mixed(LoadSpec{}, mixFractions(cluster.modelMix));
    mixed.ensure(num_queries);
    return ClusterSimulator(cluster).run(mixed.materialize(qps, num_queries),
                                         spec.routing);
}

ClusterQpsResult
findClusterMaxQps(const ClusterConfig& cluster, const ClusterQpsSpec& spec)
{
    validateSla(spec.slaMs, spec.percentile);

    // Drawn once, re-timed per candidate rate (bit-identical to
    // regenerating); the simulator is built once and shared — run()
    // is const and the routing policy is rebuilt per evaluation. Each
    // model of the mix draws its own substream, merged by arrival, and
    // a rate is feasible only if the fleet tail AND every per-model
    // SLA hold — the consolidated tier is provisioned for its most
    // demanding tenant.
    const size_t num_queries = clusterTraceLength(cluster, spec);
    MixedTraceTemplate mixed_template(LoadSpec{},
                                      mixFractions(cluster.modelMix));
    mixed_template.ensure(num_queries);
    const ClusterSimulator sim(cluster);

    auto eval = [&](double qps) -> std::pair<ClusterResult, bool> {
        ClusterResult r = sim.run(
            mixed_template.materialize(qps, num_queries), spec.routing);
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

    return findMaxRateUnderSla<ClusterResult>(eval, knobs);
}

} // namespace deeprecsys
