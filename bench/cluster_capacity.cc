/**
 * @file
 * Cluster capacity study: (a) cluster-level QPS-under-SLA as machines
 * are added — the scale-out curve a capacity plan walks; (b) the
 * machines a tier needs for a target global rate under different
 * machine mixes and scheduler policies — the provisioning question the
 * paper's introduction motivates (double per-machine QPS-under-SLA,
 * halve the tier).
 *
 * Host-measured lines: see its entry in tools/outputs.json.
 */

#include "bench/bench_common.hh"
#include "cluster/capacity_planner.hh"
#include "cluster/cluster_qps_search.hh"

using namespace deeprecsys;

namespace {

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
                cluster.machines.push_back(bench::cpuMachine(256));
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
        std::string name;
        std::vector<SimConfig> unit;
        RoutingSpec routing;
    };
    RoutingSpec po2c;
    po2c.kind = RoutingKind::PowerOfTwoChoices;
    RoutingSpec size_aware;
    size_aware.kind = RoutingKind::SizeAware;
    size_aware.sizeThreshold = 400;

    const size_t static_batch =
        DeepRecSched::staticBaselineBatch(CpuPlatform::skylake().cores);
    // The tuned CPU-only and the accelerator mix, which the closing
    // line compares.
    const size_t tuned = 1;
    const size_t accel = 2;
    const std::vector<Mix> mixes = {
        {"static batch (" + std::to_string(static_batch) + "), CPU-only",
         {bench::cpuMachine(static_batch)}, po2c},
        {"tuned batch (256), CPU-only", {bench::cpuMachine(256)}, po2c},
        {"3 CPU + 1 GPU, size-aware",
         {bench::cpuMachine(256), bench::cpuMachine(256),
          bench::cpuMachine(256), gpuMachine(256, 400)},
         size_aware},
    };

    TextTable plans({"machine mix", "units", "machines",
                     "p99 at plan (ms)", "evaluations"});
    // The feasible mixes needing the most and the fewest machines,
    // the first on ties; mixes.size() while none is feasible.
    size_t worst = mixes.size();
    size_t best = mixes.size();
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
        if (!plan.feasible)
            continue;
        if (worst == mixes.size() ||
            plan.machines > planned[worst].machines)
            worst = i;
        if (best == mixes.size() || plan.machines < planned[best].machines)
            best = i;
    }
    plans.print(std::cout);
    if (best < mixes.size()) {
        const size_t most = planned[worst].machines;
        const size_t fewest = planned[best].machines;
        std::cout << "\nThe smallest tier is the " << mixes[best].name
                  << " mix at " << fewest << " machines, down from "
                  << most << " (" << mixes[worst].name << "), "
                  << TextTable::num(
                         100.0 * (1.0 - double(fewest) / double(most)), 1)
                  << "% fewer - the datacenter capacity saving the"
                     " paper motivates, now measured at the cluster"
                     " tier.";
        if (planned[tuned].feasible && planned[accel].feasible &&
            planned[accel].machines > planned[tuned].machines) {
            std::cout << " Steering the heavy tail to accelerators does"
                         " not shrink it further: the "
                      << mixes[accel].name << " mix needs "
                      << planned[accel].machines
                      << " machines, more than the tuned CPU-only mix.";
        }
        std::cout << "\n";
    }
    return 0;
}
