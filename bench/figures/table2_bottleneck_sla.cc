/**
 * @file
 * Reproduces Table II: the runtime bottleneck class and tail-latency
 * target of each model. The bottleneck is derived two ways — from the
 * analytical cost model and from measured kernel execution — and
 * compared against the paper's classification.
 *
 * The "Measured dominant op" column is a wall-clock split, but it repeats
 * between runs all the same: each class is timed by its quickest of
 * several passes, and a leader within kTieBand of the runner-up
 * prints as "A ≈ B".
 */

#include <algorithm>
#include <array>
#include <limits>

#include "bench/bench_common.hh"
#include "costmodel/cpu_cost.hh"
#include "models/rec_model.hh"

using namespace deeprecsys;

namespace {

/** Timed forward passes per model; each class keeps its quickest. */
constexpr size_t kPasses = 8;

/**
 * A measured leader under this multiple of the runner-up is a tie.
 * Over 25 runs each at 1 and 4 threads on a 4-core shared VM, the
 * leader beat the runner-up by 1.04-1.68x on DLRM-RMC1 and DLRM-RMC2
 * (FC and embedding, either one ahead), 3.8-5.9x on DIN and at least
 * 19x on every other model.
 */
constexpr double kTieBand = 2.5;

/**
 * Per-class seconds of a batch-64 forward pass: after one untimed
 * warm-up pass, each class keeps its least time over kPasses passes,
 * so a pass slowed by host noise does not reorder the classes.
 */
OperatorStats
quickestBreakdown(const RecModel& model, Rng& rng)
{
    RecBatch batch;
    ForwardScratch scratch;
    model.makeBatch(64, rng, batch);
    model.forward(batch, scratch, nullptr);
    std::array<double, OperatorStats::numClasses> best;
    best.fill(std::numeric_limits<double>::infinity());
    for (size_t pass = 0; pass < kPasses; pass++) {
        OperatorStats timed;
        model.makeBatch(64, rng, batch);
        model.forward(batch, scratch, &timed);
        for (size_t c = 0; c < best.size(); c++)
            best[c] = std::min(best[c],
                               timed.seconds(static_cast<OpClass>(c)));
    }
    OperatorStats stats;
    for (size_t c = 0; c < best.size(); c++)
        stats.add(static_cast<OpClass>(c), best[c]);
    return stats;
}

/** The dominant measured class, or "A ≈ B" (in class order) when the
 *  top two are within kTieBand. */
std::string
measuredDominant(const OperatorStats& stats)
{
    std::array<OpClass, OperatorStats::numClasses> order;
    for (size_t c = 0; c < order.size(); c++)
        order[c] = static_cast<OpClass>(c);
    std::partial_sort(order.begin(), order.begin() + 2, order.end(),
                      [&](OpClass a, OpClass b) {
                          return stats.seconds(a) > stats.seconds(b);
                      });
    if (stats.seconds(order[0]) >= kTieBand * stats.seconds(order[1]))
        return opClassName(order[0]);
    const auto [first, second] = std::minmax(order[0], order[1]);
    return std::string(opClassName(first)) + " ≈ " + opClassName(second);
}

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

/** The paper's Table II class of a model (ModelConfig's), named as
 *  modeledBottleneck names its classes. */
const char*
paperBottleneck(const ModelConfig& cfg)
{
    if (cfg.expectedBottleneck == OpClass::Fc)
        return "MLP";
    if (cfg.expectedBottleneck == OpClass::Attention)
        return "Embedding+Attention";
    return opClassName(cfg.expectedBottleneck);
}

} // namespace

void
table2_bottleneck_sla(bench::Reproduction&)
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
        const OperatorStats stats = quickestBreakdown(model, rng);

        return std::vector<std::string>{
            cfg.name, paperBottleneck(cfg), modeledBottleneck(p),
            measuredDominant(stats),
            TextTable::num(slaTargetMs(cfg, SlaTier::Low), 1),
            TextTable::num(slaTargetMs(cfg, SlaTier::Medium), 1),
            TextTable::num(slaTargetMs(cfg, SlaTier::High), 1)};
    });
    for (const std::vector<std::string>& row : rows)
        table.addRow(row);
    table.print(std::cout);
}
