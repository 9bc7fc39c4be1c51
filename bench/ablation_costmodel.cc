/**
 * @file
 * Ablation study of the cost-model terms that DESIGN.md credits for
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
 * Host-measured lines: see its entry in tools/outputs.json.
 */

#include <functional>
#include <tuple>

#include "bench/bench_common.hh"
#include "costmodel/cpu_cost.hh"
#include "costmodel/gpu_cost.hh"
#include "sim/qps_search.hh"

using namespace deeprecsys;
using namespace deeprecsys::bench;

namespace {

/** Tuned batch and QPS for RMC1 under given CPU cost params. */
std::pair<size_t, double>
tuneBatch(const CpuCostParams& params, ModelId id, double sla_ms,
          const CpuPlatform& platform = CpuPlatform::skylake())
{
    const ModelProfile profile = ModelProfile::forModel(id);
    const CpuCostModel cost(profile, platform, params);
    QpsSearchSpec spec;
    spec.slaMs = sla_ms;
    spec.numQueries = benchQueries;

    SchedulerPolicy policy;
    double best_qps = -1.0;
    size_t best_batch = 1;
    size_t strikes = 0;
    for (size_t batch = 1; batch <= 1024; batch *= 2) {
        policy.perRequestBatch = batch;
        SimConfig sim{cost, std::nullopt, policy};
        const double qps = findMaxQps(sim, spec).maxQps;
        if (qps > best_qps * 1.02 || best_qps < 0.0) {
            best_qps = qps;
            best_batch = batch;
            strikes = 0;
        } else if (++strikes >= 2) {
            break;
        }
    }
    return {best_batch, best_qps};
}

/** Max QPS under @p sla_ms of RMC1 at one fixed batch size. */
double
qpsAtBatch(const CpuCostParams& params, size_t batch, double sla_ms)
{
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc1);
    const CpuCostModel cost(profile, CpuPlatform::skylake(), params);
    QpsSearchSpec spec;
    spec.slaMs = sla_ms;
    spec.numQueries = benchQueries;
    SchedulerPolicy policy;
    policy.perRequestBatch = batch;
    SimConfig sim{cost, std::nullopt, policy};
    return findMaxQps(sim, spec).maxQps;
}

} // namespace

int
main()
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

    // The tuning runs of A1-A3 are independent of each other, so they
    // run as one parallel sweep before any section prints. Each yields
    // (batch, QPS).
    using Tuned = std::pair<size_t, double>;
    enum Run
    {
        A1Default, A1Flat, A1DefaultAt8, A1FlatAt8,
        A2Default, A2NoContention,
        A3Default, A3FreeDispatch,
    };
    const std::vector<std::function<Tuned()>> runs = {
        [&] { return tuneBatch(defaults, ModelId::DlrmRmc1, 100.0); },
        [&] { return tuneBatch(flat, ModelId::DlrmRmc1, 100.0); },
        [&] { return Tuned{8, qpsAtBatch(defaults, 8, 100.0)}; },
        [&] { return Tuned{8, qpsAtBatch(flat, 8, 100.0)}; },
        [&] {
            return tuneBatch(defaults, ModelId::DlrmRmc3, 175.0,
                             CpuPlatform::broadwell());
        },
        [&] {
            return tuneBatch(nocontention, ModelId::DlrmRmc3, 175.0,
                             CpuPlatform::broadwell());
        },
        [&] { return tuneBatch(defaults, ModelId::Ncf, 5.0); },
        [&] { return tuneBatch(free_dispatch, ModelId::Ncf, 5.0); },
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
    {
        const Tuned& with = tuned[A2Default];
        const Tuned& without = tuned[A2NoContention];
        TextTable t({"contention model", "optimal batch", "QPS"});
        t.addRow({"inclusive-LLC thrash (default)",
                  std::to_string(with.first),
                  TextTable::num(with.second, 0)});
        t.addRow({"no contention (ablated)",
                  std::to_string(without.first),
                  TextTable::num(without.second, 0)});
        t.print(std::cout);
        std::cout << "Contention is what Broadwell's batch preference"
                     " and its QPS gap versus Skylake come from.\n";
    }

    // ---- A3: remove per-request overhead ----
    printBanner(std::cout,
                "A3: request dispatch overhead on vs off (NCF, medium)");
    {
        const Tuned& with = tuned[A3Default];
        const Tuned& without = tuned[A3FreeDispatch];
        TextTable t({"dispatch cost", "optimal batch", "QPS"});
        t.addRow({"150us/request (default)", std::to_string(with.first),
                  TextTable::num(with.second, 0)});
        t.addRow({"free (ablated)", std::to_string(without.first),
                  TextTable::num(without.second, 0)});
        t.print(std::cout);
        std::cout << "With free dispatch, fine-grained splitting stops"
                     " costing throughput, so the optimum moves to"
                     " smaller batches / pure request parallelism.\n";
    }

    // ---- A4: remove the PCIe transfer cost ----
    printBanner(std::cout,
                "A4: GPU transfer cost on vs off (DLRM-RMC1, medium)");
    {
        const ModelProfile profile =
            ModelProfile::forModel(ModelId::DlrmRmc1);
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
            const CpuCostModel cpu(profile, CpuPlatform::skylake());
            const GpuCostModel gpu(profile, platform);
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
    return 0;
}
