/**
 * @file
 * GPU offload study: attach an accelerator to a serving machine and
 * let DeepRecSched decide which queries to offload. Shows the
 * two-stage tuning (batch size, then query-size threshold), the
 * resulting work split, and whether the extra board power pays off.
 *
 * Run: ./gpu_offload_study [model-name]   (default DLRM-RMC1) *
 * Host-measured lines: see its entry in tools/outputs.json.
 */

#include <iostream>

#include "base/table.hh"
#include "core/deeprecsched.hh"

using namespace deeprecsys;

int
main(int argc, char** argv)
{
    const ModelId id =
        argc > 1 ? modelFromName(argv[1]) : ModelId::DlrmRmc1;

    InfraConfig cpu_cfg;
    cpu_cfg.model = id;
    cpu_cfg.numQueries = 1500;
    DeepRecInfra cpu_infra(cpu_cfg);

    InfraConfig gpu_cfg = cpu_cfg;
    gpu_cfg.attachGpu = true;
    DeepRecInfra gpu_infra(gpu_cfg);

    const double sla = cpu_infra.slaMs(SlaTier::Medium);
    printBanner(std::cout, "GPU offload study: " + modelName(id) +
                               " at p95<=" + TextTable::num(sla, 0) +
                               " ms");

    const TuningResult cpu = DeepRecSched::tuneCpu(cpu_infra, sla);
    const TuningResult gpu = DeepRecSched::tuneGpu(gpu_infra, sla);

    std::cout << "stage 1 (batch climb):\n";
    for (const TuningPoint& p : gpu.batchCurve) {
        std::cout << "  batch " << static_cast<size_t>(p.knob) << " -> "
                  << p.qps << " QPS\n";
    }
    std::cout << "stage 2 (threshold climb):\n";
    for (const TuningPoint& p : gpu.thresholdCurve) {
        std::cout << "  threshold " << static_cast<size_t>(p.knob)
                  << " -> " << p.qps << " QPS\n";
    }

    TextTable table({"config", "QPS", "p95 (ms)", "GPU work", "GPU util",
                     "QPS/Watt"});
    table.addRow({"CPU only (batch " +
                      std::to_string(cpu.policy.perRequestBatch) + ")",
                  TextTable::num(cpu.qps(), 0),
                  TextTable::num(cpu.atBest.atMax.p95Ms(), 1), "0%", "-",
                  TextTable::num(cpu_infra.qpsPerWatt(cpu.atBest), 2)});
    table.addRow({"CPU+GPU (threshold " +
                      std::to_string(gpu.policy.gpuQueryThreshold) + ")",
                  TextTable::num(gpu.qps(), 0),
                  TextTable::num(gpu.atBest.atMax.p95Ms(), 1),
                  TextTable::num(
                      gpu.atBest.atMax.gpuWorkFraction * 100.0, 1) + "%",
                  TextTable::num(
                      gpu.atBest.atMax.gpuUtilization * 100.0, 1) + "%",
                  TextTable::num(gpu_infra.qpsPerWatt(gpu.atBest), 2)});
    table.print(std::cout);

    const double gain = gpu.qps() / cpu.qps();
    const double power_gain = gpu_infra.qpsPerWatt(gpu.atBest) /
                              cpu_infra.qpsPerWatt(cpu.atBest);
    std::cout << "\nThe accelerator buys " << TextTable::num(gain, 2)
              << "x throughput at " << TextTable::num(power_gain, 2)
              << "x power efficiency - "
              << (power_gain >= 1.0
                      ? "worth it for this model/SLA."
                      : "raw QPS improves but each watt does less; "
                        "offloading is a capacity tool here, not an "
                        "efficiency tool.")
              << "\n";
    return 0;
}
