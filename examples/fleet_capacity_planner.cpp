/**
 * @file
 * Fleet capacity planner: size a serving tier for a target global
 * query rate under a tail SLA by *simulating the cluster*, not by
 * dividing single-machine throughput into the global rate. The
 * per-machine scheduler comes from DeepRecSched tuning; the cluster
 * tier adds a router with power-of-two-choices balancing. Demonstrates
 * the paper's motivating claim: doubling per-machine latency-bounded
 * throughput halves the number of machines a service needs.
 *
 * Run: ./fleet_capacity_planner [model-name] [global-qps]
 *      (defaults: DLRM-RMC1, 50000) *
 * Host-measured lines: see its entry in tools/outputs.json.
 */

#include <iostream>
#include <string>

#include "base/table.hh"
#include "cluster/capacity_planner.hh"
#include "core/deeprecsched.hh"

using namespace deeprecsys;

int
main(int argc, char** argv)
{
    const ModelId id =
        argc > 1 ? modelFromName(argv[1]) : ModelId::DlrmRmc1;
    const double global_qps = argc > 2 ? std::stod(argv[2]) : 50000.0;

    InfraConfig cfg;
    cfg.model = id;
    cfg.numQueries = 1500;
    DeepRecInfra infra(cfg);
    const double sla = infra.slaMs(SlaTier::Medium);

    printBanner(std::cout, "Capacity plan: " + modelName(id) + " at " +
                               TextTable::num(global_qps, 0) +
                               " global QPS, p95<=" +
                               TextTable::num(sla, 0) + " ms");

    const TuningResult base = DeepRecSched::baseline(infra, sla);
    const TuningResult tuned = DeepRecSched::tuneCpu(infra, sla);

    TextTable table({"scheduler", "batch", "per-machine QPS",
                     "machines needed", "fleet p95 at plan (ms)"});
    size_t base_machines = 0;
    size_t tuned_machines = 0;
    for (const auto& [name, r] :
         {std::pair<std::string, const TuningResult&>{"static baseline",
                                                      base},
          {"DeepRecSched", tuned}}) {
        CapacityPlanSpec plan_spec;
        plan_spec.unitMachines = {infra.simConfig(r.policy)};
        plan_spec.targetQps = global_qps;
        plan_spec.slaMs = sla;
        plan_spec.percentile = 95.0;
        plan_spec.routing.kind = RoutingKind::PowerOfTwoChoices;
        const CapacityPlan plan = planCapacity(plan_spec);

        table.addRow({name,
                      std::to_string(r.policy.perRequestBatch),
                      TextTable::num(r.qps(), 0),
                      plan.feasible ? std::to_string(plan.machines)
                                    : "infeasible",
                      plan.feasible ? TextTable::num(plan.tailMs(95.0), 1)
                                    : "-"});
        if (name == "static baseline")
            base_machines = plan.machines;
        else
            tuned_machines = plan.machines;
    }
    table.print(std::cout);

    if (base_machines > 0 && tuned_machines > 0) {
        const double saving =
            1.0 - static_cast<double>(tuned_machines) /
                      static_cast<double>(base_machines);
        std::cout << "\nDeepRecSched shrinks this tier from "
                  << base_machines << " to " << tuned_machines
                  << " machines (" << TextTable::num(saving * 100.0, 1)
                  << "% fewer) - the datacenter capacity saving the"
                     " paper's introduction motivates, measured by"
                     " cluster simulation rather than division.\n";
    }
    return 0;
}
