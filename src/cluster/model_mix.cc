#include "model_mix.hh"

#include "base/logging.hh"
#include "loadgen/query_stream.hh"

namespace deeprecsys {

std::vector<double>
mixFractions(const std::vector<ModelMixEntry>& mix)
{
    if (mix.empty())
        return {1.0};
    std::vector<double> fractions;
    fractions.reserve(mix.size());
    for (const ModelMixEntry& entry : mix)
        fractions.push_back(entry.trafficFraction);
    return fractions;
}

ModelMixEntry
makeMixEntry(ModelId id, double traffic_fraction, SlaTier tier)
{
    ModelMixEntry entry;
    entry.id = id;
    entry.trafficFraction = traffic_fraction;
    entry.slaMs = slaTargetMs(modelConfig(id), tier);
    return entry;
}

SimConfig
colocatedMachine(const std::vector<ModelMixEntry>& mix,
                 const CpuPlatform& platform, uint64_t memory_bytes)
{
    if (mix.empty())
        drs_fatal("a colocated machine needs a non-empty model mix");
    auto binding = [&](const ModelMixEntry& entry) {
        const ModelProfile profile = ModelProfile::forModel(entry.id);
        ModelService service{CpuCostModel(profile, platform),
                             std::nullopt, entry.policy};
        if (entry.policy.gpuEnabled)
            service.gpu = GpuCostModel(profile, GpuPlatform::gtx1080Ti());
        return service;
    };
    ModelService first = binding(mix.front());
    SimConfig machine{std::move(first.cpu), std::move(first.gpu),
                      first.policy};
    machine.memoryBytes = memory_bytes;
    for (size_t k = 1; k < mix.size(); k++)
        machine.bindings.push_back(binding(mix[k]));
    return machine;
}

ShardingConfig
colocatedSharding(const std::vector<ModelMixEntry>& mix,
                  const std::vector<uint64_t>& budget_bytes,
                  const PlacementSpec& placement,
                  uint32_t tables_per_query, double zipf_s)
{
    if (mix.empty())
        drs_fatal("a colocated table space needs a non-empty model mix");
    ShardingConfig sharding;
    std::vector<EmbeddingTableInfo> combined;
    double weight_sum = 0.0;
    for (uint32_t k = 0; k < mix.size(); k++) {
        const ModelConfig cfg = modelConfig(mix[k].id);
        const std::vector<EmbeddingTableInfo> tables =
            embeddingTables(cfg, zipf_s);

        ModelTableSpace space;
        space.base = static_cast<uint32_t>(combined.size());
        space.set.numTables = static_cast<uint32_t>(tables.size());
        space.set.tablesPerQuery = tables_per_query;
        space.set.zipfS = zipf_s;
        // Per-model substream off the historical salt: model 0 keeps
        // it verbatim (single-model degeneration), and two colocated
        // models never share a working-set hash stream.
        space.set.seed =
            modelSubstreamSeed(TableSetSpec{}.seed, k);
        sharding.models.push_back(space);

        // Global ids and mix-weighted popularity (renormalized below
        // so the combined weights still sum to 1).
        for (const EmbeddingTableInfo& t : tables) {
            EmbeddingTableInfo global = t;
            global.id += space.base;
            global.popularity *= mix[k].trafficFraction;
            weight_sum += global.popularity;
            combined.push_back(global);
        }
    }
    drs_assert(weight_sum > 0.0, "mix has no table popularity mass");
    for (EmbeddingTableInfo& t : combined)
        t.popularity /= weight_sum;

    sharding.placement =
        ShardPlacement::build(combined, budget_bytes, placement);
    return sharding;
}

} // namespace deeprecsys
