/**
 * @file
 * Reproduces Figure 7: the latency distribution measured on a small
 * subsample of machines tracks the full datacenter fleet to within
 * ~10%, justifying single-node studies of tail behaviour.
 *
 * Host-measured lines: none; every printed figure is seeded and
 * deterministic.
 */

#include "bench/bench_common.hh"
#include "cluster/fleet.hh"

using namespace deeprecsys;

namespace {

SimConfig
machineConfig(ModelId model, const CpuPlatform& platform)
{
    const ModelProfile profile = ModelProfile::forModel(model);
    SchedulerPolicy policy;
    policy.perRequestBatch = 256;
    return SimConfig{CpuCostModel(profile, platform), std::nullopt,
                     policy};
}

} // namespace

int
main()
{
    printBanner(std::cout,
                "Figure 7: datacenter fleet vs machine subsample");
    TextTable table({"Model", "Platform", "fleet p50 (ms)",
                     "sub p50 (ms)", "fleet p95", "sub p95",
                     "fleet p99", "sub p99", "max tail deviation"});

    struct Case
    {
        ModelId model;
        CpuPlatform platform;
        double qps;
    };
    const std::vector<Case> cases = {
        {ModelId::DlrmRmc1, CpuPlatform::skylake(), 1200.0},
        {ModelId::DlrmRmc3, CpuPlatform::broadwell(), 200.0},
    };

    for (const Case& c : cases) {
        FleetConfig fleet_cfg;
        fleet_cfg.numMachines = 120;
        fleet_cfg.perMachineQps = c.qps;
        fleet_cfg.queriesPerWindow = 2000;
        fleet_cfg.speedSigma = 0.04;
        fleet_cfg.interferenceProb = 0.08;
        fleet_cfg.interferenceSlowdown = 1.10;
        fleet_cfg.seed = 4321;

        FleetSimulator fleet(machineConfig(c.model, c.platform),
                             fleet_cfg);
        const FleetResult r = fleet.run();
        const SampleStats sub =
            r.subsample({3, 17, 29, 42, 61, 77, 88, 104});

        // Deviation over the CDF range Figure 7 plots (up to p95).
        double max_dev = 0.0;
        for (double pct : {50.0, 75.0, 90.0, 95.0}) {
            const double f = r.fleetLatency.percentile(pct);
            const double s = sub.percentile(pct);
            max_dev = std::max(max_dev, std::abs(s - f) / f);
        }
        table.addRow({modelName(c.model), c.platform.name,
                      TextTable::num(r.fleetLatency.percentile(50) * 1e3, 2),
                      TextTable::num(sub.percentile(50) * 1e3, 2),
                      TextTable::num(r.fleetLatency.percentile(95) * 1e3, 2),
                      TextTable::num(sub.percentile(95) * 1e3, 2),
                      TextTable::num(r.fleetLatency.percentile(99) * 1e3, 2),
                      TextTable::num(sub.percentile(99) * 1e3, 2),
                      TextTable::num(max_dev * 100.0, 1) + "%"});
    }
    table.print(std::cout);
    std::cout << "\nPaper: subsampled machines track the fleet within"
                 " ~10%.\n";
    return 0;
}
