/**
 * @file
 * Reproduces Figure 4: GPU speedup over a CPU core across batch sizes
 * for every model, the batch size at which the GPU starts to win
 * (annotated in the paper's figure), and the fraction of GPU time
 * spent loading data (60-80% in the paper).
 */

#include "bench/bench_common.hh"
#include "costmodel/cpu_cost.hh"
#include "costmodel/gpu_cost.hh"

using namespace deeprecsys;

void
fig04_gpu_speedup(bench::Reproduction&)
{
    printBanner(std::cout, "Figure 4: GPU speedup over CPU vs batch size");
    const std::vector<size_t> batches = {1, 8, 64, 256, 1024};

    std::vector<std::string> headers = {"Model"};
    for (size_t b : batches)
        headers.push_back("b=" + std::to_string(b));
    headers.push_back("GPU wins at");
    headers.push_back("xfer frac (b=64)");
    TextTable table(std::move(headers));

    for (ModelId id : allModelIds()) {
        const ModelProfile p = ModelProfile::forModel(id);
        const CpuCostModel cpu(p, CpuPlatform::skylake());
        const GpuCostModel gpu(p, GpuPlatform::gtx1080Ti());

        std::vector<std::string> row = {p.name};
        for (size_t b : batches)
            row.push_back(TextTable::num(gpu.speedupOverCpu(cpu, b), 2));
        const size_t cross = gpu.crossoverBatch(cpu);
        row.push_back(cross ? std::to_string(cross) : ">1024");
        row.push_back(TextTable::num(
            gpu.transferSeconds(64) / gpu.querySeconds(64) * 100.0, 0)
            + "%");
        table.addRow(std::move(row));
    }
    table.print(std::cout);
}
