/**
 * @file
 * Reproduces Table II: the runtime bottleneck class and tail-latency
 * target of each model. The bottleneck is derived two ways — from the
 * analytical cost model and from measured kernel execution — and
 * compared against the paper's classification.
 */

#include "bench/bench_common.hh"
#include "costmodel/cpu_cost.hh"
#include "models/rec_model.hh"

using namespace deeprecsys;

namespace {

/** Dominant component per the analytical cost model at batch 64. */
const char*
modeledBottleneck(const ModelProfile& p)
{
    const CpuCostModel cost(p, CpuPlatform::skylake());
    const double fc = cost.fcSeconds(64, 20);
    const double emb = cost.embeddingSeconds(64, 20);
    const double attn = cost.attentionSeconds(64, 20);
    const double rec = cost.recurrentSeconds(64);
    if (rec >= fc && rec >= emb && rec >= attn)
        return "Recurrent";
    if (attn + emb > fc && p.attnFlopsPerSample > 0)
        return "Embedding+Attention";
    if (emb >= fc)
        return "Embedding";
    return "MLP";
}

const char*
paperBottleneck(ModelId id)
{
    switch (id) {
      case ModelId::DlrmRmc1:
      case ModelId::DlrmRmc2:
        return "Embedding";
      case ModelId::Din:
        return "Embedding+Attention";
      case ModelId::Dien:
        return "Recurrent";
      default:
        return "MLP";
    }
}

} // namespace

int
main()
{
    printBanner(std::cout, "Table II: runtime bottleneck and SLA targets");
    TextTable table({"Model", "Paper bottleneck", "Modeled bottleneck",
                     "Measured dominant op", "SLA low (ms)",
                     "SLA medium (ms)", "SLA high (ms)"});

    // Each model is built and measured independently, so the models
    // run in parallel; rows come back in model order.
    const auto rows = bench::sweepMap(allModelIds(), [](ModelId id) {
        const ModelConfig cfg = modelConfig(id);
        const ModelProfile p = ModelProfile::forModel(id);

        ModelScale scale;
        scale.maxPhysicalRows = 1ull << 15;
        const RecModel model(cfg, 17, scale);
        Rng rng(29);
        const OperatorStats stats = model.measureBreakdown(64, 2, rng);

        return std::vector<std::string>{
            cfg.name, paperBottleneck(id), modeledBottleneck(p),
            opClassName(stats.dominant()),
            TextTable::num(slaTargetMs(cfg, SlaTier::Low), 1),
            TextTable::num(slaTargetMs(cfg, SlaTier::Medium), 1),
            TextTable::num(slaTargetMs(cfg, SlaTier::High), 1)};
    });
    for (const std::vector<std::string>& row : rows)
        table.addRow(row);
    table.print(std::cout);
    return 0;
}
