/**
 * @file
 * Reproduces Figure 10: achievable QPS versus the accelerator
 * query-size threshold. Threshold 1 offloads every query ("all GPU");
 * beyond the maximum query size nothing offloads ("all CPU"). The
 * optimum sits between and varies per model class.
 */

#include "bench/bench_common.hh"

using namespace deeprecsys;
using namespace deeprecsys::bench;

void
fig10_offload_threshold(Reproduction& reproduction)
{
    const std::vector<uint32_t> thresholds = {1,   64,  128, 192, 256,
                                              320, 384, 512, 768, 1001};
    const std::vector<ModelId> models = {ModelId::DlrmRmc1,
                                         ModelId::DlrmRmc3, ModelId::Dien};
    // Each model tunes and sweeps independently, so the models run in
    // parallel, and each model's threshold searches are a nested
    // sweep; curves come back in input order.
    const std::vector<std::vector<QpsSearchResult>> curves =
        sweepMap(models, [&](ModelId id) {
            DeepRecInfra infra(defaultInfra(id, /*gpu=*/true));
            const double sla = infra.slaMs(SlaTier::Medium);

            // The batch size for CPU-resident work comes from stage 1
            // of DeepRecSched (Section IV-C): the batch climb of the
            // same machine without the accelerator.
            const TuningResult& cpu =
                reproduction.tune(defaultInfra(id), sla);

            // One independent max-QPS search per threshold.
            return sweepMap(thresholds, [&](uint32_t t) {
                SchedulerPolicy policy = cpu.policy;
                policy.gpuEnabled = true;
                policy.gpuQueryThreshold = t;
                return infra.maxQps(policy, sla);
            });
        });

    for (size_t m = 0; m < models.size(); m++) {
        const ModelId id = models[m];
        const std::vector<QpsSearchResult>& curve = curves[m];
        TextTable table({"threshold", "QPS", "GPU work frac"});
        for (size_t i = 0; i < thresholds.size(); i++) {
            const QpsSearchResult& r = curve[i];
            table.addRow({std::to_string(thresholds[i]),
                          TextTable::num(r.maxQps, 0),
                          TextTable::num(
                              r.atMax.gpuWorkFraction * 100.0, 1) + "%"});
        }
        printBanner(std::cout,
                    "Figure 10: " + modelName(id) + " (medium target)" +
                        " -> optimal threshold " +
                        std::to_string(thresholds[DeepRecSched::gridPick(
                            curve, &QpsSearchResult::maxQps)]));
        table.print(std::cout);
    }
}
