/**
 * @file
 * Reproduces Figure 9: achievable QPS versus per-request batch size.
 * Top: DLRM-RMC3 at two latency targets (optimum moves to a larger
 * batch as the target relaxes). Bottom: the optimal batch differs
 * across DLRM-RMC1 (embedding), DLRM-RMC3 (MLP), and DIEN (attention)
 * model classes.
 */

#include <iterator>
#include <set>
#include <span>

#include "bench/bench_common.hh"

using namespace deeprecsys;
using namespace deeprecsys::bench;

void
fig09_batch_sweep(Reproduction&)
{
    // Top: DLRM-RMC3 at the low (50ms) and medium (100ms) targets.
    // Bottom: model classes at their medium targets.
    using Sweep = std::pair<ModelId, SlaTier>;
    const std::vector<Sweep> panels = {
        {ModelId::DlrmRmc3, SlaTier::Low},
        {ModelId::DlrmRmc3, SlaTier::Medium},
        {ModelId::DlrmRmc1, SlaTier::Medium},
        {ModelId::DlrmRmc3, SlaTier::Medium},
        {ModelId::Dien, SlaTier::Medium}};
    std::vector<size_t> batches;
    for (size_t batch = 1; batch <= DeepRecSched::maxBatch; batch *= 2)
        batches.push_back(batch);

    // DLRM-RMC3 at the medium target is in both halves, so the
    // distinct sweeps' points run as one flat sweep of independent
    // max-QPS searches, returned in input order.
    const std::set<Sweep> sweeps(panels.begin(), panels.end());
    std::vector<std::pair<Sweep, size_t>> grid;
    for (const Sweep& sweep : sweeps)
        for (size_t batch : batches)
            grid.push_back({sweep, batch});
    const std::vector<double> qps =
        sweepMap(grid, [](const std::pair<Sweep, size_t>& point) {
            const DeepRecInfra infra(defaultInfra(point.first.first));
            SchedulerPolicy policy;
            policy.perRequestBatch = point.second;
            return infra.maxQps(policy, infra.slaMs(point.first.second))
                .maxQps;
        });

    for (size_t p = 0; p < panels.size(); p++) {
        const auto [model, tier] = panels[p];
        const double* curve =
            &qps[std::distance(sweeps.begin(), sweeps.find(panels[p])) *
                 batches.size()];
        const double sla_ms = slaTargetMs(modelConfig(model), tier);
        TextTable table({"batch", "QPS under p95<=" +
                         TextTable::num(sla_ms, 0) + "ms"});
        for (size_t i = 0; i < batches.size(); i++)
            table.addRow({std::to_string(batches[i]),
                          TextTable::num(curve[i], 0)});
        const size_t best_batch = batches[DeepRecSched::gridPick(
            std::span(curve, batches.size()))];
        printBanner(std::cout, std::string("Figure 9 (") +
                                   (p < 2 ? "top" : "bottom") + "): " +
                                   modelName(model) + ", " +
                                   slaTierName(tier) +
                                   " latency target -> optimal batch " +
                                   std::to_string(best_batch));
        table.print(std::cout);
    }
}
