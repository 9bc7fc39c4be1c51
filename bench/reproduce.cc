/**
 * @file
 * Reproduces the paper's simulated figures and tables, and the ablation
 * of the cost-model terms behind them, from one driver:
 *
 *     reproduce [NAME...]
 *
 * runs the named figures (bench/figures/NAME.cc) in argument order, or
 * all of them in name order, over one tune memo (bench::Reproduction),
 * so each distinct DeepRecSched tune runs once however many figures
 * ask for it. Each figure prints what it would print alone; the last
 * line gives the number of distinct tunes run. An unknown name prints
 * the valid names and exits 2 before any figure runs. Figure 3, whose
 * every line is host-timed, is its own binary (fig03_operator_breakdown).
 */

#include <algorithm>
#include <iostream>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_common.hh"

using deeprecsys::bench::Reproduction;
using Figure = std::pair<std::string_view, void (*)(Reproduction&)>;

// Every figure, in name order: X(name) for each.
#define DRS_FIGURES(X)                                                     \
    X(ablation_costmodel)                                                  \
    X(fig01_characterization) X(fig04_gpu_speedup) X(fig05_query_sizes)   \
    X(fig06_query_time_split) X(fig07_fleet_subsample)                    \
    X(fig09_batch_sweep) X(fig10_offload_threshold) X(fig11_end_to_end)   \
    X(fig12_tradeoffs) X(fig13_production_tail) X(fig14_latency_sweep)    \
    X(table1_model_zoo) X(table2_bottleneck_sla)

#define DRS_DECLARE(name) void name(Reproduction&);
DRS_FIGURES(DRS_DECLARE)
#define DRS_ENTRY(name) Figure{#name, name},

int
main(int argc, char** argv)
{
    const std::vector<Figure> figures = {DRS_FIGURES(DRS_ENTRY)};

    std::vector<Figure> chosen;
    for (int i = 1; i < argc; i++) {
        const auto it = std::ranges::find(figures, std::string_view(argv[i]),
                                          &Figure::first);
        if (it == figures.end()) {
            std::cerr << argv[0] << ": unknown figure " << argv[i]
                      << "\nusage: " << argv[0] << " [NAME...], NAMEs:\n";
            for (const Figure& figure : figures)
                std::cerr << "  " << figure.first << "\n";
            return 2;
        }
        chosen.push_back(*it);
    }
    if (chosen.empty())
        chosen = figures;

    Reproduction reproduction;
    for (const Figure& figure : chosen)
        figure.second(reproduction);
    const size_t cpu = reproduction.distinctTunes(/*with_gpu=*/false);
    const size_t gpu = reproduction.distinctTunes(/*with_gpu=*/true);
    std::cout << cpu + gpu << " distinct tunes (" << cpu << " CPU-only, "
              << gpu << " with the accelerator)\n";
    return 0;
}
