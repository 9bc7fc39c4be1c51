/**
 * @file
 * Cluster capacity study: (a) cluster-level QPS-under-SLA as machines
 * are added — the scale-out curve a capacity plan walks; (b) the
 * machines a tier needs for a target global rate under different
 * machine mixes and scheduler policies — the provisioning question the
 * paper's introduction motivates (double per-machine QPS-under-SLA,
 * halve the tier).
 *
 * Host-measured lines: none; every printed figure is seeded and
 * deterministic.
 */

#include "bench/bench_common.hh"
#include "cluster/capacity_planner.hh"
#include "cluster/cluster_qps_search.hh"

using namespace deeprecsys;

namespace {

SimConfig
cpuMachine(size_t batch)
{
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc1);
    SchedulerPolicy policy;
    policy.perRequestBatch = batch;
    return SimConfig{CpuCostModel(profile, CpuPlatform::skylake()),
                     std::nullopt, policy};
}

SimConfig
gpuMachine(size_t batch, uint32_t threshold)
{
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc1);
    SchedulerPolicy policy;
    policy.perRequestBatch = batch;
    policy.gpuEnabled = true;
    policy.gpuQueryThreshold = threshold;
    return SimConfig{CpuCostModel(profile, CpuPlatform::skylake()),
                     GpuCostModel(profile, GpuPlatform::gtx1080Ti()),
                     policy};
}

} // namespace

int
main()
{
    const double sla_ms = 100.0;

    printBanner(std::cout, "Cluster QPS-under-SLA scale-out (p99 <= " +
                               TextTable::num(sla_ms, 0) + " ms)");
    TextTable scaling({"machines", "max global QPS", "QPS per machine",
                       "p99 at max (ms)", "evaluations"});
    // Each tier size is an independent search, so the sizes run in
    // parallel; results come back in size order.
    const std::vector<size_t> sizes = {1, 2, 4, 8, 16};
    const std::vector<ClusterQpsResult> searches =
        bench::sweepMap(sizes, [&](size_t n) {
            ClusterConfig cluster;
            for (size_t m = 0; m < n; m++)
                cluster.machines.push_back(cpuMachine(256));
            ClusterQpsSpec spec;
            spec.slaMs = sla_ms;
            spec.routing.kind = RoutingKind::PowerOfTwoChoices;
            return findClusterMaxQps(cluster, spec);
        });
    const double one_machine_qps = searches.front().maxQps;
    for (size_t i = 0; i < sizes.size(); i++) {
        const size_t n = sizes[i];
        const ClusterQpsResult& r = searches[i];
        scaling.addRow({std::to_string(n),
                        TextTable::num(r.maxQps, 0),
                        TextTable::num(r.maxQps / double(n), 0),
                        TextTable::num(r.atMax.tailMs(99), 1),
                        std::to_string(r.evaluations)});
    }
    scaling.print(std::cout);
    std::cout << "\nScale-out exceeds linear in machines: queue-aware"
                 " routing pools Poisson burstiness across the fleet"
                 " (statistical multiplexing), so per-machine"
                 " QPS-under-p99 rises above the single-machine "
              << TextTable::num(one_machine_qps, 0)
              << " as the tier grows - capacity questions must be asked"
                 " at the cluster, not the machine.\n\n";

    const double target_qps = 50000.0;
    printBanner(std::cout, "Capacity plan: machines for " +
                               TextTable::num(target_qps, 0) +
                               " global QPS (p99 <= " +
                               TextTable::num(sla_ms, 0) + " ms)");

    struct Mix
    {
        const char* name;
        std::vector<SimConfig> unit;
        RoutingSpec routing;
    };
    RoutingSpec po2c;
    po2c.kind = RoutingKind::PowerOfTwoChoices;
    RoutingSpec size_aware;
    size_aware.kind = RoutingKind::SizeAware;
    size_aware.sizeThreshold = 400;

    const std::vector<Mix> mixes = {
        {"static batch (25), CPU-only", {cpuMachine(25)}, po2c},
        {"tuned batch (256), CPU-only", {cpuMachine(256)}, po2c},
        {"3 CPU + 1 GPU, size-aware",
         {cpuMachine(256), cpuMachine(256), cpuMachine(256),
          gpuMachine(256, 400)},
         size_aware},
    };

    TextTable plans({"machine mix", "units", "machines",
                     "p99 at plan (ms)", "evaluations"});
    size_t worst_machines = 0;
    size_t best_machines = 0;
    const std::vector<CapacityPlan> planned =
        bench::sweepMap(mixes, [&](const Mix& mix) {
            CapacityPlanSpec spec;
            spec.unitMachines = mix.unit;
            spec.targetQps = target_qps;
            spec.slaMs = sla_ms;
            spec.routing = mix.routing;
            return planCapacity(spec);
        });
    for (size_t i = 0; i < mixes.size(); i++) {
        const Mix& mix = mixes[i];
        const CapacityPlan& plan = planned[i];
        plans.addRow({mix.name,
                      plan.feasible ? std::to_string(plan.units) : "-",
                      plan.feasible ? std::to_string(plan.machines)
                                    : "infeasible",
                      plan.feasible ? TextTable::num(plan.tailMs(99), 1)
                                    : "-",
                      std::to_string(plan.evaluations)});
        if (plan.feasible) {
            worst_machines = std::max(worst_machines, plan.machines);
            if (best_machines == 0)
                best_machines = plan.machines;
            best_machines = std::min(best_machines, plan.machines);
        }
    }
    plans.print(std::cout);
    if (worst_machines > 0 && best_machines > 0) {
        std::cout << "\nTuning the per-machine scheduler and steering"
                     " the heavy tail to accelerators shrinks the tier"
                     " from "
                  << worst_machines << " to " << best_machines
                  << " machines ("
                  << TextTable::num(
                         100.0 * (1.0 - double(best_machines) /
                                            double(worst_machines)),
                         1)
                  << "% fewer) - the datacenter capacity saving the"
                     " paper motivates, now measured at the cluster"
                     " tier.\n";
    }
    return 0;
}
