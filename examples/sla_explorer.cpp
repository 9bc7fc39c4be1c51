/**
 * @file
 * SLA explorer: how does the sustainable throughput of a model change
 * as the tail-latency target tightens, and how does the scheduler's
 * chosen operating point move? Mirrors the paper's Section VI-A
 * methodology for an arbitrary model/target grid.
 *
 * Run: ./sla_explorer [model-name]   (default DIEN) *
 * Host-measured lines: see its entry in tools/outputs.json.
 */

#include <iostream>

#include "base/table.hh"
#include "core/deeprecsched.hh"

using namespace deeprecsys;

int
main(int argc, char** argv)
{
    const ModelId id = argc > 1 ? modelFromName(argv[1]) : ModelId::Dien;

    InfraConfig cfg;
    cfg.model = id;
    cfg.numQueries = 1500;
    DeepRecInfra infra(cfg);

    const double medium = infra.slaMs(SlaTier::Medium);
    printBanner(std::cout, "SLA sweep for " + modelName(id) +
                               " (medium target " +
                               TextTable::num(medium, 0) + " ms)");

    TextTable table({"target (ms)", "tuned batch", "QPS", "p95 (ms)",
                     "p99 (ms)", "CPU util"});
    for (double frac : {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0}) {
        const double sla = medium * frac;
        const TuningResult r = DeepRecSched::tuneCpu(infra, sla);
        if (r.qps() <= 0.0) {
            table.addRow({TextTable::num(sla, 1), "-", "infeasible",
                          "-", "-", "-"});
            continue;
        }
        table.addRow({TextTable::num(sla, 1),
                      std::to_string(r.policy.perRequestBatch),
                      TextTable::num(r.qps(), 0),
                      TextTable::num(r.atBest.atMax.p95Ms(), 1),
                      TextTable::num(r.atBest.atMax.p99Ms(), 1),
                      TextTable::num(
                          r.atBest.atMax.cpuUtilization * 100.0, 0) +
                          "%"});
    }
    table.print(std::cout);
    std::cout << "\nTighter targets force request-level parallelism"
                 " (smaller batches) and sacrifice throughput; relaxed"
                 " targets favour batch-level parallelism.\n";
    return 0;
}
