/**
 * @file
 * Reproduces Figure 12: how the optimal request-vs-batch parallelism
 * point moves with (a) the SLA target and the query-size distribution
 * (including the penalty for tuning against the wrong distribution),
 * (b) the model architecture, and (c) the CPU platform (inclusive
 * Broadwell vs exclusive Skylake cache hierarchies).
 */

#include <functional>

#include "bench/bench_common.hh"
#include "costmodel/cpu_cost.hh"

using namespace deeprecsys;
using namespace deeprecsys::bench;

void
fig12_tradeoffs(Reproduction& reproduction)
{
    using Row = std::vector<std::string>;

    // (a) One row per tier: DLRM-RMC1 tuned for production and
    // lognormal query sizes.
    auto tier_row = [&](SlaTier tier) -> Row {
        InfraConfig prod_cfg = defaultInfra(ModelId::DlrmRmc1);
        DeepRecInfra prod(prod_cfg);
        InfraConfig logn_cfg = prod_cfg;
        logn_cfg.sizeDist = SizeDistKind::Lognormal;

        const double sla = prod.slaMs(tier);
        const TuningResult& rp = reproduction.tune(prod_cfg, sla);
        const TuningResult& rl = reproduction.tune(logn_cfg, sla);

        // Apply the lognormal-tuned batch to production traffic: the
        // penalty the paper quantifies as 1.2-1.7x.
        SchedulerPolicy mistuned = rl.policy;
        const double mistuned_qps = prod.maxQps(mistuned, sla).maxQps;

        return {slaTierName(tier),
                std::to_string(rp.policy.perRequestBatch),
                TextTable::num(rp.qps(), 0),
                std::to_string(rl.policy.perRequestBatch),
                TextTable::num(rl.qps(), 0),
                TextTable::num(rp.qps() / mistuned_qps, 2) + "x"};
    };

    // (b) One row per model architecture at the high tier.
    const std::vector<std::pair<ModelId, const char*>> models = {
        {ModelId::DlrmRmc1, "embedding"},
        {ModelId::Din, "embedding+attention"},
        {ModelId::DlrmRmc3, "MLP"},
        {ModelId::WideAndDeep, "MLP"},
        {ModelId::Dien, "recurrent"},
    };
    auto model_row = [&](const std::pair<ModelId, const char*>& entry)
        -> Row {
        const auto& [id, klass] = entry;
        const TuningResult& r = reproduction.tune(
            defaultInfra(id), slaTargetMs(modelConfig(id), SlaTier::High));
        return {modelName(id), klass,
                std::to_string(r.policy.perRequestBatch),
                TextTable::num(r.qps(), 0)};
    };

    // (c) One row per platform: DLRM-RMC3 at 175 ms.
    const std::vector<CpuPlatform> platforms = {CpuPlatform::broadwell(),
                                                CpuPlatform::skylake()};
    auto platform_row = [&](const CpuPlatform& platform) -> Row {
        InfraConfig cfg = defaultInfra(ModelId::DlrmRmc3);
        cfg.platform = platform;
        DeepRecInfra infra(cfg);
        const TuningResult& r = reproduction.tune(cfg, 175.0);

        SchedulerPolicy small = r.policy;
        small.perRequestBatch = 16;
        const double qps_small = infra.maxQps(small, 175.0).maxQps;

        const CpuCostModel& cost = infra.cpuModel();
        return {platform.name,
                platform.inclusiveLlc ? "inclusive" : "exclusive",
                std::to_string(r.policy.perRequestBatch),
                TextTable::num(r.qps(), 0),
                TextTable::num(qps_small / r.qps(), 2),
                TextTable::num(cost.contentionFactor(platform.cores, 16),
                               2),
                TextTable::num(cost.contentionFactor(platform.cores, 1024),
                               2)};
    };

    // Every row of the three panels is an independent tuning, so all
    // of them run as one parallel sweep; rows come back in input order
    // and each panel prints its slice.
    std::vector<std::function<Row()>> jobs;
    for (SlaTier tier : allTiers())
        jobs.push_back([=] { return tier_row(tier); });
    for (const auto& entry : models)
        jobs.push_back([=] { return model_row(entry); });
    for (const CpuPlatform& platform : platforms)
        jobs.push_back([=] { return platform_row(platform); });
    const std::vector<Row> rows = sweepMap(
        jobs, [](const std::function<Row()>& job) { return job(); });
    auto next_row = rows.begin();
    auto print_panel = [&](TextTable table, size_t count) {
        for (size_t i = 0; i < count; i++)
            table.addRow(*next_row++);
        table.print(std::cout);
    };

    printBanner(std::cout,
                "Figure 12(a): optimal batch vs SLA target and size "
                "distribution (DLRM-RMC1)");
    print_panel(TextTable({"tier", "production: batch", "QPS",
                           "lognormal: batch", "QPS",
                           "mis-tuned penalty"}),
                allTiers().size());

    printBanner(std::cout,
                "Figure 12(b): optimal batch across models (high tier)");
    print_panel(TextTable({"Model", "class", "optimal batch", "QPS"}),
                models.size());

    printBanner(std::cout,
                "Figure 12(c): DLRM-RMC3 at 175ms on Broadwell vs "
                "Skylake");
    print_panel(TextTable({"Platform", "LLC", "optimal batch", "QPS",
                           "QPS@16 / QPS@opt", "contention @16",
                           "contention @1024"}),
                platforms.size());
    std::cout << "\nInclusive caches (Broadwell) pay a steep"
                 " request-parallel penalty; batch parallelism"
                 " recovers it (paper: L2 miss 55% at batch 16 vs"
                 " 40% at 1024).\n";
}
