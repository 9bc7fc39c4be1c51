/**
 * @file
 * Reproduces Figure 14 for DLRM-RMC1: (a) throughput versus the
 * tail-latency target with and without the accelerator — the GPU
 * unlocks targets the CPU cannot reach and its share of work falls as
 * the target relaxes; (b) QPS/Watt — the GPU wins at strict targets,
 * the CPU at relaxed ones.
 */

#include "bench/bench_common.hh"

using namespace deeprecsys;
using namespace deeprecsys::bench;

void
fig14_latency_sweep(Reproduction& reproduction)
{
    DeepRecInfra cpu_infra(defaultInfra(ModelId::DlrmRmc1));
    DeepRecInfra gpu_infra(defaultInfra(ModelId::DlrmRmc1, /*gpu=*/true));

    printBanner(std::cout,
                "Figure 14: DLRM-RMC1 across tail latency targets");
    TextTable table({"target (ms)", "CPU QPS", "CPU batch",
                     "CPU+GPU QPS", "threshold", "GPU work",
                     "CPU QPS/W", "CPU+GPU QPS/W", "QPS/W winner"});

    struct Row
    {
        TuningResult cpu, gpu;
    };
    const std::vector<double> targets = {3.0,  5.0,  8.0,   12.0, 20.0,
                                         40.0, 60.0, 100.0, 150.0};
    const std::vector<Row> rows = sweepMap(targets, [&](double sla) {
        return Row{reproduction.tune(cpu_infra.config(), sla),
                   reproduction.tune(gpu_infra.config(), sla)};
    });

    for (size_t i = 0; i < targets.size(); i++) {
        const double sla = targets[i];
        const TuningResult& c = rows[i].cpu;
        const TuningResult& g = rows[i].gpu;
        const double cpw = cpu_infra.qpsPerWatt(c.atBest);
        const double gpw = gpu_infra.qpsPerWatt(g.atBest);

        table.addRow({TextTable::num(sla, 0),
                      TextTable::num(c.qps(), 0),
                      c.qps() > 0
                          ? std::to_string(c.policy.perRequestBatch)
                          : "-",
                      TextTable::num(g.qps(), 0),
                      g.policy.gpuEnabled
                          ? std::to_string(g.policy.gpuQueryThreshold)
                          : "cpu-only",
                      TextTable::num(
                          g.atBest.atMax.gpuWorkFraction * 100.0, 1) +
                          "%",
                      TextTable::num(cpw, 2), TextTable::num(gpw, 2),
                      gpw > cpw ? "GPU" : "CPU"});
    }
    table.print(std::cout);
    std::cout << "\nPaper: GPUs unlock sub-CPU-floor latency targets"
                 " (57ms -> 41ms on their testbed); the GPU work share"
                 " falls as the target relaxes; QPS/W flips from GPU to"
                 " CPU at relaxed targets.\n";
}
