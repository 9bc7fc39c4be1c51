/**
 * @file
 * Ablation study of the cost-model terms the reproduction credits for
 * the paper's results. Each ablation disables one mechanism and
 * re-runs the relevant experiment, showing that the reproduced effect
 * genuinely comes from that mechanism:
 *
 *  A1  gather batching efficiency -> large-batch preference of
 *      embedding-bound models (Figures 9/12b)
 *  A2  LLC contention/thrash -> the Broadwell request-parallel
 *      penalty (Figure 12c)
 *  A3  per-request dispatch overhead -> the cost of over-splitting
 *  A4  PCIe transfer cost -> the GPU offload threshold (Figure 10)
 *
 * The default rows of A1-A3 are the figures' own DeepRecSched tunes,
 * from the tune memo: fig11's DLRM-RMC1 and NCF medium cells, and
 * fig12(c)'s DLRM-RMC3 on Broadwell at 175 ms. Each ablated row tunes
 * the same machine under the same search with one term changed.
 */

#include <functional>
#include <tuple>

#include "bench/bench_common.hh"

using namespace deeprecsys;
using namespace deeprecsys::bench;

namespace {

/** @p infra's machine priced with @p params, at batch @p batch. */
SimConfig
ablatedMachine(const DeepRecInfra& infra, const CpuCostParams& params,
               size_t batch = 1)
{
    SchedulerPolicy policy;
    policy.perRequestBatch = batch;
    return SimConfig{
        CpuCostModel(infra.profile(), infra.config().platform, params),
        std::nullopt, policy};
}

} // namespace

void
ablation_costmodel(Reproduction& reproduction)
{
    // Each ablation's parameter set next to the default.
    const CpuCostParams defaults;
    CpuCostParams flat = defaults;
    // Pin gather efficiency at (roughly) the unbatched level so
    // batching no longer buys DRAM bandwidth.
    flat.gatherHalfBatch = 1e12;
    flat.gatherEffFloor = 0.5;
    CpuCostParams nocontention = defaults;
    nocontention.inclusiveContention = 0.0;
    nocontention.exclusiveContention = 0.0;
    nocontention.inclusiveThrashWeight = 0.0;
    nocontention.exclusiveThrashWeight = 0.0;
    CpuCostParams free_dispatch = defaults;
    free_dispatch.requestOverheadS = 0.0;

    const DeepRecInfra rmc1(defaultInfra(ModelId::DlrmRmc1));
    const DeepRecInfra ncf(defaultInfra(ModelId::Ncf));
    InfraConfig broadwell_cfg = defaultInfra(ModelId::DlrmRmc3);
    broadwell_cfg.platform = CpuPlatform::broadwell();
    const DeepRecInfra broadwell(broadwell_cfg);
    const double rmc1_sla = rmc1.slaMs(SlaTier::Medium);
    const double ncf_sla = ncf.slaMs(SlaTier::Medium);
    const double broadwell_sla = 175.0;

    // The runs of A1-A3 are independent of each other, so they run as
    // one parallel sweep before any section prints. Each yields
    // (batch, QPS).
    using Tuned = std::pair<size_t, double>;
    auto memo = [&](const DeepRecInfra& infra, double sla) {
        const TuningResult& r = reproduction.tune(infra.config(), sla);
        return Tuned{r.policy.perRequestBatch, r.qps()};
    };
    auto ablated = [](const DeepRecInfra& infra, const CpuCostParams& params,
                      double sla) {
        const TuningResult r = DeepRecSched::tuneCpu(
            ablatedMachine(infra, params), infra.searchSpec(sla));
        return Tuned{r.policy.perRequestBatch, r.qps()};
    };
    auto at_batch8 = [&](const CpuCostParams& params) {
        return Tuned{8, findMaxQps(ablatedMachine(rmc1, params, 8),
                                   rmc1.searchSpec(rmc1_sla))
                            .maxQps};
    };
    enum Run
    {
        A1Default, A1Flat, A1DefaultAt8, A1FlatAt8,
        A2Default, A2NoContention,
        A3Default, A3FreeDispatch,
    };
    const std::vector<std::function<Tuned()>> runs = {
        [&] { return memo(rmc1, rmc1_sla); },
        [&] { return ablated(rmc1, flat, rmc1_sla); },
        [&] { return at_batch8(defaults); },
        [&] { return at_batch8(flat); },
        [&] { return memo(broadwell, broadwell_sla); },
        [&] { return ablated(broadwell, nocontention, broadwell_sla); },
        [&] { return memo(ncf, ncf_sla); },
        [&] { return ablated(ncf, free_dispatch, ncf_sla); },
    };
    const std::vector<Tuned> tuned = sweepMap(
        runs, [](const std::function<Tuned()>& run) { return run(); });

    // ---- A1: remove the gather batching benefit ----
    printBanner(std::cout,
                "A1: embedding gather efficiency flat vs batched "
                "(DLRM-RMC1, medium)");
    {
        TextTable t({"gather model", "optimal batch", "QPS@opt",
                     "QPS@batch8", "batching benefit"});
        for (const auto& [label, opt, at8] :
             {std::tuple{"batch-dependent (default)", A1Default,
                         A1DefaultAt8},
              std::tuple{"flat (ablated)", A1Flat, A1FlatAt8}}) {
            const double qps = tuned[opt].second;
            const double qps8 = tuned[at8].second;
            t.addRow({label, std::to_string(tuned[opt].first),
                      TextTable::num(qps, 0), TextTable::num(qps8, 0),
                      TextTable::num(qps / qps8, 2) + "x"});
        }
        t.print(std::cout);
        std::cout << "The DRAM batching term is where the embedding-"
                     "bound model's gain from large batches comes"
                     " from; pinned efficiency flattens it.\n";
    }

    // ---- A2: remove cache contention ----
    printBanner(std::cout,
                "A2: LLC contention on vs off (DLRM-RMC3 on Broadwell, "
                "175ms)");
    // A row of A2 or A3: one run's optimal batch and QPS.
    auto tune_row = [&](const char* label, Run run) {
        return std::vector<std::string>{
            label, std::to_string(tuned[run].first),
            TextTable::num(tuned[run].second, 0)};
    };
    {
        TextTable t({"contention model", "optimal batch", "QPS"});
        t.addRow(tune_row("inclusive-LLC thrash (default)", A2Default));
        t.addRow(tune_row("no contention (ablated)", A2NoContention));
        t.print(std::cout);
        std::cout << "Contention is what Broadwell's batch preference"
                     " and its QPS gap versus Skylake come from.\n";
    }

    // ---- A3: remove per-request overhead ----
    printBanner(std::cout,
                "A3: request dispatch overhead on vs off (NCF, medium)");
    {
        TextTable t({"dispatch cost", "optimal batch", "QPS"});
        t.addRow(tune_row("150us/request (default)", A3Default));
        t.addRow(tune_row("free (ablated)", A3FreeDispatch));
        t.print(std::cout);
        std::cout << "Free dispatch raises NCF's tuned QPS "
                  << TextTable::num(tuned[A3FreeDispatch].second /
                                        tuned[A3Default].second,
                                    2)
                  << "x. On this traffic draw the optimum moves to a"
                     " larger batch, not to finer splitting: which way"
                     " it moves depends on the draw (another arrival"
                     " and size seed moves it to a smaller one).\n";
    }

    // ---- A4: remove the PCIe transfer cost ----
    printBanner(std::cout,
                "A4: GPU transfer cost on vs off (DLRM-RMC1, medium)");
    {
        GpuPlatform real = GpuPlatform::gtx1080Ti();
        GpuPlatform free_pcie = real;
        free_pcie.pcieBwGBs = 1e6;      // effectively instantaneous
        free_pcie.pcieLatencyS = 0.0;

        TextTable t({"transfer model", "crossover batch",
                     "speedup @1024", "xfer frac @64"});
        for (const auto& [label, platform] :
             {std::pair<const char*, GpuPlatform&>{"PCIe (default)",
                                                   real},
              {"free transfers (ablated)", free_pcie}}) {
            const CpuCostModel& cpu = rmc1.cpuModel();
            const GpuCostModel gpu(rmc1.profile(), platform);
            t.addRow({label,
                      std::to_string(gpu.crossoverBatch(cpu)),
                      TextTable::num(gpu.speedupOverCpu(cpu, 1024), 1) +
                          "x",
                      TextTable::num(gpu.transferSeconds(64) /
                                         gpu.querySeconds(64) * 100.0,
                                     0) + "%"});
        }
        t.print(std::cout);
        std::cout << "Data loading is what pushes the CPU/GPU"
                     " crossover to larger queries - the premise of"
                     " the query-size offload threshold (Figure 10).\n";
    }
}
