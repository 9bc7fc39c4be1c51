#include "model_profile.hh"

#include <vector>

#include "models/rec_model.hh"

namespace deeprecsys {

ModelProfile
ModelProfile::fromModel(const RecModel& model)
{
    const ModelConfig& cfg = model.config();
    ModelProfile p;
    p.id = cfg.id;
    p.name = cfg.name;
    p.denseFlopsPerSample =
        static_cast<double>(model.denseFlopsPerSample());
    p.attnFlopsPerSample =
        static_cast<double>(model.attentionFlopsPerSample());
    p.recFlopsPerSample =
        static_cast<double>(model.recurrentFlopsPerSample());
    p.seqFlopsPerSample =
        static_cast<double>(model.sequenceFlopsPerSample());
    p.embBytesPerSample =
        static_cast<double>(model.embeddingBytesPerSample());
    p.denseParamBytes = static_cast<double>(model.denseParamBytes());
    p.logicalEmbeddingBytes =
        static_cast<double>(model.logicalEmbeddingBytes());

    // Host->device bytes per sample: fp32 dense features plus int64
    // sparse indices (regular lookups, behaviors, candidate).
    const double sparse_indices =
        static_cast<double>(cfg.numTables) * cfg.lookupsPerTable +
        static_cast<double>(cfg.seqLen) +
        ((cfg.useAttention || cfg.useRecurrent) ? 1.0 : 0.0);
    p.inputBytesPerSample =
        static_cast<double>(cfg.denseInputDim) * sizeof(float) +
        sparse_indices * sizeof(int64_t);
    return p;
}

ModelProfile
ModelProfile::forModel(ModelId id)
{
    // The counts are pure in the id, so each model is materialized
    // once per process; a function-local static is filled thread-
    // safely on first use. Tiny scale truncates physical rows only;
    // logical byte accounting is unaffected, so the profile matches
    // a full-scale build.
    static const std::vector<ModelProfile> table = [] {
        std::vector<ModelProfile> profiles;
        for (size_t k = 0; k < allModelIds().size(); k++) {
            const RecModel tiny(modelConfig(static_cast<ModelId>(k)),
                                /*seed=*/7, ModelScale::tiny());
            profiles.push_back(fromModel(tiny));
        }
        return profiles;
    }();
    return table.at(static_cast<size_t>(id));
}

} // namespace deeprecsys
