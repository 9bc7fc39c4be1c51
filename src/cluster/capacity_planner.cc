#include "capacity_planner.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "sim/rate_search.hh"

namespace deeprecsys {

namespace {

/** Build the cluster of @p units copies of the deployable unit. */
ClusterConfig
clusterOfUnits(const CapacityPlanSpec& spec, size_t units)
{
    ClusterConfig cluster;
    cluster.machines.reserve(units * spec.unitMachines.size());
    for (size_t u = 0; u < units; u++) {
        for (const SimConfig& machine : spec.unitMachines)
            cluster.machines.push_back(machine);
    }
    return cluster;
}

} // namespace

CapacityPlan
planCapacity(const CapacityPlanSpec& spec)
{
    // A bad spec is the caller's error, not a library bug.
    if (spec.unitMachines.empty())
        drs_fatal("plan needs a machine mix");
    if (!(spec.targetQps > 0.0))
        drs_fatal("target rate must be positive");
    validateSla(spec.slaMs, spec.percentile);
    if (spec.maxUnits < 1)
        drs_fatal("plan needs a unit budget");

    CapacityPlan plan;

    // The query population is drawn once and re-timed per candidate
    // (bit-identical to regenerating); larger tiers consume a longer
    // prefix. Each model of the mix draws its own substream, merged by
    // arrival. Every plan draws the default LoadSpec stream.
    LoadSpec load;
    load.qps = spec.targetQps;
    MixedTraceTemplate mixed_template(load, mixFractions(spec.modelMix));

    // Evaluate one candidate unit count end-to-end: infeasible counts
    // raise lo, feasible ones lower hi. Returns whether it met the SLA.
    size_t lo = 0;           // largest count proven infeasible
    size_t hi = 0;           // smallest count proven feasible
    ClusterResult atHi;
    auto feasible = [&](size_t units) {
        plan.evaluations++;
        ClusterConfig cluster = clusterOfUnits(spec, units);
        cluster.modelMix = spec.modelMix;
        const size_t queries = std::max(
            spec.minQueries,
            spec.queriesPerMachine * units * spec.unitMachines.size());
        mixed_template.ensure(queries);
        ClusterResult r = ClusterSimulator(cluster).run(
            mixed_template.materialize(spec.targetQps, queries),
            spec.routing);
        if (r.tailMs(spec.percentile) > spec.slaMs ||
            !meetsPerModelSla(r, spec.modelMix, spec.percentile)) {
            lo = units;
            return false;
        }
        hi = units;
        atHi = std::move(r);
        return true;
    };

    // Geometric probe for the first feasible unit count.
    for (size_t rung = 1; !feasible(rung);
         rung = std::min(2 * rung, spec.maxUnits)) {
        if (rung >= spec.maxUnits)
            return plan;    // infeasible within the unit budget
    }

    // Bisect (lo infeasible, hi feasible] for the minimal count, each
    // step walking its midpoint ladder up to the first feasible count.
    while (hi - lo > 1) {
        const size_t width = hi - lo;
        const std::vector<size_t> mids =
            bisectionLadder(lo, hi, [width](size_t j) {
                return width * j / (kBisectionMidpoints + 1);
            });
        drs_assert(!mids.empty(), "empty bisection step");
        for (size_t mid : mids) {
            if (feasible(mid))
                break;
        }
    }

    plan.feasible = true;
    plan.units = hi;
    plan.machines = hi * spec.unitMachines.size();
    plan.atPlan = std::move(atHi);
    return plan;
}

} // namespace deeprecsys
