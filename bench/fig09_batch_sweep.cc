/**
 * @file
 * Reproduces Figure 9: achievable QPS versus per-request batch size.
 * Top: DLRM-RMC3 at two latency targets (optimum moves to a larger
 * batch as the target relaxes). Bottom: the optimal batch differs
 * across DLRM-RMC1 (embedding), DLRM-RMC3 (MLP), and DIEN (attention)
 * model classes.
 *
 * Host-measured lines: see its entry in tools/outputs.json.
 */

#include "bench/bench_common.hh"

using namespace deeprecsys;
using namespace deeprecsys::bench;

namespace {

void
sweep(const DeepRecInfra& infra, double sla_ms, const std::string& label)
{
    TextTable table({"batch", "QPS under p95<=" +
                     TextTable::num(sla_ms, 0) + "ms"});
    std::vector<size_t> batches;
    for (size_t batch = 1; batch <= 1024; batch *= 2)
        batches.push_back(batch);

    // Every grid point is an independent max-QPS search; the sweep
    // helper evaluates them concurrently and returns input order.
    const std::vector<double> qps_curve =
        sweepMap(batches, [&](size_t batch) {
            SchedulerPolicy policy;
            policy.perRequestBatch = batch;
            return infra.maxQps(policy, sla_ms).maxQps;
        });

    double best_qps = 0.0;
    size_t best_batch = 1;
    for (size_t i = 0; i < batches.size(); i++) {
        if (qps_curve[i] > best_qps * 1.02) {
            best_qps = qps_curve[i];
            best_batch = batches[i];
        }
        table.addRow({std::to_string(batches[i]),
                      TextTable::num(qps_curve[i], 0)});
    }
    printBanner(std::cout, label + " -> optimal batch " +
                               std::to_string(best_batch));
    table.print(std::cout);
}

} // namespace

int
main()
{
    // Top: DLRM-RMC3 at low (50ms) and medium (100ms) targets.
    {
        DeepRecInfra infra(defaultInfra(ModelId::DlrmRmc3));
        sweep(infra, infra.slaMs(SlaTier::Low),
              "Figure 9 (top): DLRM-RMC3, low latency target");
        sweep(infra, infra.slaMs(SlaTier::Medium),
              "Figure 9 (top): DLRM-RMC3, medium latency target");
    }

    // Bottom: model classes at their medium targets.
    for (ModelId id :
         {ModelId::DlrmRmc1, ModelId::DlrmRmc3, ModelId::Dien}) {
        DeepRecInfra infra(defaultInfra(id));
        sweep(infra, infra.slaMs(SlaTier::Medium),
              "Figure 9 (bottom): " + modelName(id) +
                  ", medium latency target");
    }
    return 0;
}
