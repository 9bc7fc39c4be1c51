/**
 * @file
 * Custom model: the generalized architecture of Figure 2 is a
 * configuration space, not a fixed zoo. This example defines a new
 * recommendation service (a hybrid with a dense stack, multi-hot
 * embeddings, and an attention path), checks its resource profile,
 * classifies its bottleneck, and tunes a scheduler for it.
 *
 * Host-measured lines: "measured dominant", the operator class that
 * took the most kernel wall time over two real forward passes.
 */

#include <iostream>

#include "base/table.hh"
#include "core/deeprecsched.hh"
#include "costmodel/model_profile.hh"
#include "models/rec_model.hh"

using namespace deeprecsys;

int
main()
{
    // A hypothetical "RM-X" ranking model: mid-sized dense stack,
    // 16 multi-hot tables, and a short attention window.
    ModelConfig cfg;
    cfg.id = ModelId::DlrmRmc1;     // id is informational here
    cfg.name = "RM-X";
    cfg.company = "example";
    cfg.domain = "Feed";
    cfg.denseInputDim = 128;
    cfg.denseFcDims = {256, 64};
    cfg.numTables = 16;
    cfg.tableRows = 2'000'000;
    cfg.embeddingDim = 64;
    cfg.lookupsPerTable = 24;
    cfg.pooling = Pooling::Sum;
    cfg.useAttention = true;
    cfg.behaviorTableRows = 10'000'000;
    cfg.seqLen = 48;
    cfg.attentionHidden = 32;
    cfg.predictFcDims = {256, 64};
    cfg.slaMediumMs = 60.0;

    // Real execution sanity check.
    const RecModel model(cfg, /*seed=*/5);
    Rng rng(9);
    const Tensor ctr = model.forward(model.makeBatch(8, rng));
    std::cout << "RM-X scores 8 pairs; CTR[0]=" << ctr.at(0, 0) << "\n";

    // Resource profile and measured bottleneck.
    const ModelProfile profile = ModelProfile::fromModel(model);
    Rng rng2(11);
    const OperatorStats breakdown = model.measureBreakdown(64, 2, rng2);
    printBanner(std::cout, "RM-X profile");
    std::cout << "  FC MFLOPs/sample:   "
              << profile.denseFlopsPerSample / 1e6 << "\n"
              << "  attn MFLOPs/sample: "
              << profile.attnFlopsPerSample / 1e6 << "\n"
              << "  emb KB/sample:      "
              << profile.embBytesPerSample / 1024.0 << "\n"
              << "  logical tables GB:  "
              << profile.logicalEmbeddingBytes / 1e9 << "\n"
              << "  measured dominant:  "
              << opClassName(breakdown.dominant()) << "\n";

    // Scheduler tuning for the new service.
    InfraConfig infra_cfg;
    infra_cfg.numQueries = 1200;
    DeepRecInfra base_infra(infra_cfg);   // platform defaults
    // Build an infra around the custom profile by hand.
    const CpuCostModel cost(profile, infra_cfg.platform);
    SchedulerPolicy policy;
    QpsSearchSpec spec;
    spec.slaMs = cfg.slaMediumMs;
    spec.numQueries = 1200;

    printBanner(std::cout, "RM-X batch-size climb (p95<=60ms)");
    TextTable table({"batch", "QPS"});
    double best_qps = 0.0;
    size_t best_batch = 1;
    for (size_t batch = 1; batch <= 1024; batch *= 2) {
        policy.perRequestBatch = batch;
        SimConfig sim{cost, std::nullopt, policy};
        const double qps = findMaxQps(sim, spec).maxQps;
        table.addRow({std::to_string(batch), TextTable::num(qps, 0)});
        if (qps > best_qps * 1.02) {
            best_qps = qps;
            best_batch = batch;
        }
    }
    table.print(std::cout);
    std::cout << "\nRM-X serves best at batch " << best_batch << " ("
              << best_qps << " QPS under its 60 ms target).\n";
    return 0;
}
