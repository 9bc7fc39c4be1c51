/**
 * @file
 * Capacity planner: how many machines of a given mix sustain a target
 * global query rate under a fleet-wide tail SLA?
 *
 * This is the provisioning question the paper's introduction motivates
 * (doubling per-machine QPS-under-SLA halves the machines a service
 * needs) answered by direct cluster simulation rather than by dividing
 * a single-machine throughput into the global rate: queueing at the
 * router, machine heterogeneity, and the routing policy all shift the
 * break-even point. The deployable unit is a *mix* — e.g. three
 * CPU-only machines plus one GPU machine — scaled integrally.
 * Every planned machine holds the whole model: the planner sizes for
 * throughput only, and a sharded tier is driven through
 * ClusterSimulator directly.
 *
 * Multi-model plans (CapacityPlanSpec::modelMix non-empty) size a
 * *consolidated* tier: the unit machines carry one binding per mix
 * entry, evaluations draw the mixed trace, and a unit count is
 * feasible only if the fleet tail and every per-model SLA hold — the
 * machine count one colocated tier needs to serve the whole zoo,
 * which bench/colocation_sweep.cc compares against dedicated
 * per-model tiers.
 *
 * Units: SLA targets in milliseconds, rates in queries/second.
 * Determinism: planCapacity is a pure function of its spec; fixed
 * seeds reproduce the plan exactly.
 */

#ifndef DRS_CLUSTER_CAPACITY_PLANNER_HH
#define DRS_CLUSTER_CAPACITY_PLANNER_HH

#include "cluster/cluster_qps_search.hh"
#include "cluster/cluster_sim.hh"
#include "loadgen/query_stream.hh"

namespace deeprecsys {

/** Parameters of a capacity plan. */
struct CapacityPlanSpec
{
    /** Smallest deployable unit: the machine mix scaled integrally. */
    std::vector<SimConfig> unitMachines;

    double targetQps = 10000.0; ///< global rate the tier must sustain
    double slaMs = 100.0;       ///< fleet-wide tail-latency target
    double percentile = 99.0;   ///< which tail

    RoutingSpec routing;        ///< router policy of the planned tier

    /**
     * Model mix the planned tier serves (cluster/model_mix.hh). Empty
     * (default) plans the historical single-model tier. When set, the
     * unit machines must carry a binding per mix entry (typically
     * built by colocatedMachine), each evaluation draws the mixed
     * trace, and a unit count is feasible only if the fleet tail AND
     * every per-model SLA hold — so the plan answers "how many
     * consolidated machines serve the whole mix".
     */
    std::vector<ModelMixEntry> modelMix;

    /** Global trace sized so each machine sees this many queries. */
    size_t queriesPerMachine = 300;
    /** Floor on the global trace length per evaluation. */
    size_t minQueries = 3000;

    /** Give up above this many units (plan declared infeasible). */
    size_t maxUnits = 1024;
};

/** Outcome of a capacity plan. */
struct CapacityPlan
{
    bool feasible = false;      ///< a unit count met the SLA
    size_t units = 0;           ///< minimal feasible unit count
    size_t machines = 0;        ///< units * unit size
    ClusterResult atPlan;       ///< cluster stats at the plan point

    /** Candidate unit counts the plan evaluated. */
    size_t evaluations = 0;

    /** Tail latency at the planned size, in milliseconds. */
    double
    tailMs(double pct) const
    {
        return atPlan.tailMs(pct);
    }

    /**
     * Machine-hours this static plan burns over @p span_seconds of
     * wall time: every planned machine stays powered for the whole
     * span, peak traffic or not. This is the provisioning baseline
     * the elastic tier (cluster/autoscaler.hh) reports its
     * machine-hours savings against.
     */
    double
    machineHoursOver(double span_seconds) const
    {
        return static_cast<double>(machines) * span_seconds / 3600.0;
    }
};

/**
 * Find the minimal number of deployable units whose cluster meets the
 * SLA at the target global rate (geometric probe, then bisection on
 * the unit count with the midpoint ladder of sim/rate_search.hh),
 * evaluating candidates in order on the calling thread. Deterministic
 * for fixed seeds at every DRS_THREADS value.
 */
CapacityPlan planCapacity(const CapacityPlanSpec& spec);

} // namespace deeprecsys

#endif // DRS_CLUSTER_CAPACITY_PLANNER_HH
