/**
 * @file
 * Reproduces Figure 13: deploying the tuned batch size on a fleet of
 * machines serving diurnal traffic for a simulated day reduces p95 and
 * p99 tail latency versus the fixed production batch size (paper:
 * 1.39x and 1.31x respectively).
 */

#include "bench/bench_common.hh"
#include "cluster/fleet.hh"

using namespace deeprecsys;
using namespace deeprecsys::bench;

namespace {

FleetResult
runFleet(ModelId model, size_t batch, double per_machine_qps)
{
    FleetConfig cfg;
    cfg.numMachines = 100;
    cfg.perMachineQps = per_machine_qps;
    cfg.queriesPerWindow = 600;
    cfg.numWindows = 12;            // a compressed diurnal day
    cfg.diurnalPeakToTrough = 2.0;
    cfg.seed = 20200530;
    return FleetSimulator(cpuMachine(batch, model), cfg).run();
}

} // namespace

void
fig13_production_tail(Reproduction& reproduction)
{
    printBanner(std::cout,
                "Figure 13: production-fleet tail latency, fixed vs "
                "tuned batch over a diurnal day");
    TextTable table({"Model", "load/machine", "fixed batch", "tuned batch",
                     "p95 fixed (ms)", "p95 tuned (ms)", "p95 reduction",
                     "p99 fixed (ms)", "p99 tuned (ms)",
                     "p99 reduction"});

    struct Case
    {
        ModelId model;
        double qps;
    };
    // Load points chosen so the fixed configuration runs hot (but
    // stable) at the diurnal peak while the tuned one has headroom.
    const std::vector<Case> cases = {
        {ModelId::DlrmRmc1, 560.0},
        {ModelId::DlrmRmc3, 600.0},
        {ModelId::WideAndDeep, 780.0},
    };

    struct Row
    {
        size_t fixedBatch = 0;
        size_t tunedBatch = 0;
        double p95Fixed = 0.0, p95Tuned = 0.0;
        double p99Fixed = 0.0, p99Tuned = 0.0;
    };
    // Each case tunes and simulates its fleets independently, so the
    // cases run in parallel; rows come back in case order.
    const std::vector<Row> rows = sweepMap(cases, [&](const Case& c) {
        // Tuned batch from DeepRecSched at the medium tier.
        const TuningResult& tuned_cfg = reproduction.tune(
            defaultInfra(c.model),
            slaTargetMs(modelConfig(c.model), SlaTier::Medium));
        Row row;
        row.fixedBatch =
            DeepRecSched::staticBaselineBatch(CpuPlatform::skylake().cores);
        row.tunedBatch = tuned_cfg.policy.perRequestBatch;

        const FleetResult fixed = runFleet(c.model, row.fixedBatch, c.qps);
        const FleetResult tuned = runFleet(c.model, row.tunedBatch, c.qps);
        row.p95Fixed = fixed.tailMs(95.0);
        row.p95Tuned = tuned.tailMs(95.0);
        row.p99Fixed = fixed.tailMs(99.0);
        row.p99Tuned = tuned.tailMs(99.0);
        return row;
    });

    std::vector<double> p95_ratios, p99_ratios;
    for (size_t i = 0; i < cases.size(); i++) {
        const Case& c = cases[i];
        const Row& row = rows[i];
        const double p95_ratio = row.p95Fixed / row.p95Tuned;
        const double p99_ratio = row.p99Fixed / row.p99Tuned;
        p95_ratios.push_back(p95_ratio);
        p99_ratios.push_back(p99_ratio);

        table.addRow({modelName(c.model), TextTable::num(c.qps, 0),
                      std::to_string(row.fixedBatch),
                      std::to_string(row.tunedBatch),
                      TextTable::num(row.p95Fixed, 1),
                      TextTable::num(row.p95Tuned, 1),
                      TextTable::num(p95_ratio, 2) + "x",
                      TextTable::num(row.p99Fixed, 1),
                      TextTable::num(row.p99Tuned, 1),
                      TextTable::num(p99_ratio, 2) + "x"});
    }
    table.print(std::cout);
    std::cout << "\nGeomean reduction: p95 "
              << TextTable::num(geomean(p95_ratios), 2) << "x, p99 "
              << TextTable::num(geomean(p99_ratios), 2)
              << "x (paper: 1.39x / 1.31x).\n";
}
