/**
 * @file
 * Reproduces Figure 11, the paper's headline result: throughput (QPS)
 * and power efficiency (QPS/Watt) of DeepRecSched-CPU and
 * DeepRecSched-GPU against the static production baseline, across all
 * eight models and three tail-latency tiers, normalized per model to
 * the baseline at the low tier. Paper geomeans: DRS-CPU 1.7x/2.1x/2.7x
 * and DRS-GPU 4.0x/5.1x/5.8x QPS at low/medium/high.
 */

#include <map>

#include "bench/bench_common.hh"

using namespace deeprecsys;
using namespace deeprecsys::bench;

void
fig11_end_to_end(Reproduction& reproduction)
{
    struct Cell
    {
        double qps = 0.0;
        double qpw = 0.0;
    };
    struct Tuned
    {
        Cell base, cpu, gpu;
    };

    // Every (model, tier) cell tunes independently, so the cells run
    // in parallel; results come back in grid order.
    std::vector<std::pair<ModelId, SlaTier>> grid;
    for (ModelId id : allModelIds())
        for (SlaTier tier : allTiers())
            grid.push_back({id, tier});
    const std::vector<Tuned> tuned =
        sweepMap(grid, [&](const std::pair<ModelId, SlaTier>& cell) {
            DeepRecInfra cpu_infra(defaultInfra(cell.first));
            DeepRecInfra gpu_infra(defaultInfra(cell.first, /*gpu=*/true));
            const double sla = cpu_infra.slaMs(cell.second);
            const TuningResult b = DeepRecSched::baseline(cpu_infra, sla);
            const TuningResult& c =
                reproduction.tune(cpu_infra.config(), sla);
            const TuningResult& g =
                reproduction.tune(gpu_infra.config(), sla);
            return Tuned{{b.qps(), cpu_infra.qpsPerWatt(b.atBest)},
                         {c.qps(), cpu_infra.qpsPerWatt(c.atBest)},
                         {g.qps(), gpu_infra.qpsPerWatt(g.atBest)}};
        });

    // results[model][tier] per scheduler.
    std::map<ModelId, std::map<SlaTier, Cell>> base, cpu, gpu;
    for (size_t i = 0; i < grid.size(); i++) {
        const auto [id, tier] = grid[i];
        base[id][tier] = tuned[i].base;
        cpu[id][tier] = tuned[i].cpu;
        gpu[id][tier] = tuned[i].gpu;
    }

    auto report = [&](const char* title, auto member) {
        printBanner(std::cout, title);
        TextTable table({"Model", "base low", "base med", "base high",
                         "DRS-CPU low", "DRS-CPU med", "DRS-CPU high",
                         "DRS-GPU low", "DRS-GPU med", "DRS-GPU high"});
        std::map<SlaTier, std::vector<double>> cpu_gains, gpu_gains;
        for (ModelId id : allModelIds()) {
            const double norm = base[id][SlaTier::Low].*member;
            std::vector<std::string> row = {modelName(id)};
            for (auto* sched : {&base, &cpu, &gpu}) {
                for (SlaTier tier : allTiers()) {
                    const double v = (*sched)[id][tier].*member / norm;
                    row.push_back(TextTable::num(v, 2));
                    if (sched == &cpu)
                        cpu_gains[tier].push_back(
                            (*sched)[id][tier].*member /
                            base[id][tier].*member);
                    if (sched == &gpu)
                        gpu_gains[tier].push_back(
                            (*sched)[id][tier].*member /
                            base[id][tier].*member);
                }
            }
            table.addRow(std::move(row));
        }
        table.print(std::cout);
        std::cout << "\nGeomean gain over the baseline at the same tier:\n";
        for (SlaTier tier : allTiers()) {
            std::cout << "  " << slaTierName(tier)
                      << ": DRS-CPU " << TextTable::num(
                             geomean(cpu_gains[tier]), 2)
                      << "x, DRS-GPU "
                      << TextTable::num(geomean(gpu_gains[tier]), 2)
                      << "x\n";
        }
    };

    report("Figure 11 (top): QPS normalized to baseline@low",
           &Cell::qps);
    report("Figure 11 (bottom): QPS/Watt normalized to baseline@low",
           &Cell::qpw);
    std::cout << "\nPaper geomeans: QPS DRS-CPU 1.7/2.1/2.7x,"
                 " DRS-GPU 4.0/5.1/5.8x; QPS/W DRS-CPU 1.7/2.1/2.7x,"
                 " DRS-GPU 2.0/2.6/2.9x (low/med/high).\n";
}
