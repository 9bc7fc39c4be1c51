/**
 * @file
 * Reproduces Figure 6: execution-time split between small (<= p75
 * size) and large (> p75) queries on CPU and GPU. Despite being only
 * 25% of queries, large queries carry ~half of CPU execution time;
 * the GPU accelerates exactly that half.
 */

#include <algorithm>

#include "bench/bench_common.hh"
#include "costmodel/cpu_cost.hh"
#include "costmodel/gpu_cost.hh"
#include "loadgen/distributions.hh"

using namespace deeprecsys;

void
fig06_query_time_split(bench::Reproduction&)
{
    constexpr size_t n = 20000;
    auto dist = QuerySizeDistribution::production(/*seed=*/99);
    std::vector<uint32_t> sizes(n);
    for (auto& s : sizes)
        s = dist.sample();
    std::vector<uint32_t> sorted = sizes;
    std::sort(sorted.begin(), sorted.end());
    const uint32_t p75 = sorted[(3 * n) / 4];

    printBanner(std::cout,
                "Figure 6: execution time of small (<=p75) vs large "
                "(>p75) queries, p75=" + std::to_string(p75));
    TextTable table({"Model", "CPU small", "CPU large", "GPU small",
                     "GPU large", "large-share CPU",
                     "GPU speedup on large"});

    for (ModelId id : allModelIds()) {
        const ModelProfile p = ModelProfile::forModel(id);
        const CpuCostModel cpu(p, CpuPlatform::skylake());
        const GpuCostModel gpu(p, GpuPlatform::gtx1080Ti());

        double cpu_small = 0.0;
        double cpu_large = 0.0;
        double gpu_small = 0.0;
        double gpu_large = 0.0;
        for (uint32_t s : sizes) {
            const double tc = cpu.requestSeconds(s, 1);
            const double tg = gpu.querySeconds(s);
            if (s <= p75) {
                cpu_small += tc;
                gpu_small += tg;
            } else {
                cpu_large += tc;
                gpu_large += tg;
            }
        }
        table.addRow({p.name,
                      TextTable::num(cpu_small, 1) + "s",
                      TextTable::num(cpu_large, 1) + "s",
                      TextTable::num(gpu_small, 1) + "s",
                      TextTable::num(gpu_large, 1) + "s",
                      TextTable::num(cpu_large /
                                     (cpu_small + cpu_large) * 100.0, 1)
                          + "%",
                      TextTable::num(cpu_large / gpu_large, 2) + "x"});
    }
    table.print(std::cout);
}
