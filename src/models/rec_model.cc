#include "rec_model.hh"

#include <algorithm>

namespace deeprecsys {

size_t
RecBatch::batchSize() const
{
    if (!dense.empty())
        return dense.dim(0);
    if (!sparse.empty())
        return sparse.front().batchSize();
    return candidates.batchSize();
}

RecModel::RecModel(const ModelConfig& cfg_in, uint64_t seed,
                   const ModelScale& scale)
    : cfg(cfg_in)
{
    if (cfg.tableRows > UINT32_MAX || cfg.behaviorTableRows > UINT32_MAX)
        drs_fatal("model ", cfg.name, ": a table of more than UINT32_MAX "
                  "rows (", std::max(cfg.tableRows, cfg.behaviorTableRows),
                  ") does not fit 32-bit lookup indices");
    Rng rng(seed);

    if (!cfg.denseFcDims.empty()) {
        drs_assert(cfg.denseInputDim > 0,
                   "dense stack configured without dense inputs");
        std::vector<size_t> dims;
        dims.push_back(cfg.denseInputDim);
        dims.insert(dims.end(), cfg.denseFcDims.begin(),
                    cfg.denseFcDims.end());
        denseStack.emplace(dims, rng, Activation::Relu);
    }

    if (cfg.numTables > 0) {
        embeddings.emplace(cfg.numTables, cfg.tableRows, cfg.embeddingDim,
                           cfg.lookupsPerTable, cfg.pooling, rng,
                           scale.maxPhysicalRows);
    }

    if (cfg.useAttention || cfg.useRecurrent) {
        drs_assert(cfg.behaviorTableRows > 0 && cfg.seqLen > 0,
                   "sequence path needs a behavior table and seqLen");
        behaviorTable.emplace(cfg.behaviorTableRows, cfg.embeddingDim, rng,
                              scale.maxPhysicalRows);
        attention.emplace(cfg.useRecurrent ? cfg.gruHidden
                                           : cfg.embeddingDim,
                          cfg.attentionHidden, rng);
    }
    if (cfg.useRecurrent) {
        extractionGru.emplace(cfg.embeddingDim, cfg.gruHidden, rng);
        evolutionGru.emplace(cfg.gruHidden, cfg.gruHidden, rng);
    }

    std::vector<size_t> pdims;
    pdims.push_back(interactionWidth());
    pdims.insert(pdims.end(), cfg.predictFcDims.begin(),
                 cfg.predictFcDims.end());
    drs_assert(pdims.size() >= 2, "predictor needs at least one layer");
    predictorTrunk = Mlp(pdims, rng, Activation::Relu);
    drs_assert(cfg.numTasks >= 1, "model needs at least one task");
    taskHeads.reserve(cfg.numTasks);
    for (size_t t = 0; t < cfg.numTasks; t++) {
        taskHeads.emplace_back(predictorTrunk.outDim(), 1,
                               Activation::Sigmoid, rng);
    }
}

size_t
RecModel::interactionWidth() const
{
    if (cfg.interaction == InteractionKind::GmfConcat) {
        // GMF product (dim) + the remaining table outputs concatenated.
        drs_assert(cfg.numTables >= 2, "GMF needs user and item tables");
        return cfg.embeddingDim * (cfg.numTables - 1);
    }

    size_t width = 0;
    if (denseStack) {
        width += denseStack->outDim();
    } else if (cfg.denseInputDim > 0) {
        width += cfg.denseInputDim;    // raw dense bypass (WnD)
    }
    if (embeddings)
        width += embeddings->pooledWidth();
    if (cfg.useRecurrent) {
        width += cfg.gruHidden;         // evolved interest state
    } else if (cfg.useAttention) {
        width += cfg.embeddingDim;      // attention-pooled behaviors
    }
    if (cfg.useAttention || cfg.useRecurrent)
        width += cfg.embeddingDim;      // candidate item embedding

    if (cfg.interaction == InteractionKind::Sum) {
        // Sum interaction collapses equal-width parts to one vector.
        return denseStack ? denseStack->outDim() : cfg.embeddingDim;
    }
    return width;
}

RecBatch
RecModel::makeBatch(size_t batch_size, Rng& rng) const
{
    RecBatch batch;
    makeBatch(batch_size, rng, batch);
    return batch;
}

void
RecModel::makeBatch(size_t batch_size, Rng& rng, RecBatch& batch) const
{
    drs_assert(batch_size > 0, "batch size must be positive");
    if (cfg.denseInputDim > 0) {
        batch.dense.resizeMat(batch_size, cfg.denseInputDim);
        for (size_t i = 0; i < batch.dense.numel(); i++)
            batch.dense.at(i) = static_cast<float>(rng.normal(0.0, 1.0));
    } else {
        batch.dense = Tensor();
    }
    if (embeddings)
        embeddings->randomBatches(batch_size, rng, batch.sparse);
    else
        batch.sparse.clear();
    if (behaviorTable) {
        batch.behaviors.fillUniform(batch_size, cfg.seqLen,
                                    behaviorTable->logicalRows(), rng);
        batch.candidates.fillUniform(batch_size, 1,
                                     behaviorTable->logicalRows(), rng);
    } else {
        batch.behaviors = SparseBatch();
        batch.candidates = SparseBatch();
    }
}

Tensor
RecModel::sequencePath(const RecBatch& batch, OperatorStats* stats) const
{
    const Tensor seq = behaviorTable->gatherSequence(batch.behaviors, stats);
    const Tensor cand = behaviorTable->gatherSequence(batch.candidates,
                                                      stats);
    const size_t bs = batch.batchSize();
    Tensor cand2d = cand;
    cand2d.reshape({bs, cfg.embeddingDim});

    if (!cfg.useRecurrent) {
        // DIN: attention-pool behaviors against the candidate, then
        // concat with the candidate embedding.
        const Tensor pooled = attention->pool(seq, cand2d, stats);
        return concatCols({&pooled, &cand2d});
    }

    // DIEN: interest extraction GRU over raw behaviors, attention
    // scores of each hidden state vs the candidate (projected), then
    // an attention-gated GRU evolves the interest state.
    const Tensor states = extractionGru->forwardAllStates(seq, stats);
    const size_t steps = cfg.seqLen;

    Tensor scores = Tensor::mat(bs, steps);
    {
        // Candidate must match the attention dim (gruHidden); DIEN
        // uses equal embedding and hidden dims so reuse directly.
        drs_assert(cfg.gruHidden == cfg.embeddingDim,
                   "DIEN config requires gruHidden == embeddingDim");
        for (size_t i = 0; i < bs; i++) {
            Tensor sample = Tensor::mat(steps, cfg.gruHidden);
            const float* src = states.data() + i * steps * cfg.gruHidden;
            std::copy(src, src + steps * cfg.gruHidden, sample.data());
            const std::vector<float> w =
                attention->scores(sample, cand2d.row(i), stats);
            for (size_t t = 0; t < steps; t++)
                scores.at(i, t) = w[t];
        }
    }
    const Tensor evolved = evolutionGru->forward(states, &scores, stats);
    return concatCols({&evolved, &cand2d});
}

Tensor
RecModel::forward(const RecBatch& batch, OperatorStats* stats) const
{
    const size_t bs = batch.batchSize();
    drs_assert(bs > 0, "forward on empty batch");

    std::vector<Tensor> parts;
    parts.reserve(4);

    // Dense path.
    if (denseStack) {
        parts.push_back(denseStack->forward(batch.dense, stats));
    } else if (cfg.denseInputDim > 0) {
        parts.push_back(batch.dense);   // bypass (WnD)
    }

    // Sparse path.
    std::vector<Tensor> pooled;
    if (embeddings)
        pooled = embeddings->forward(batch.sparse, stats);

    // Sequence path (DIN / DIEN).
    if (cfg.useAttention || cfg.useRecurrent)
        parts.push_back(sequencePath(batch, stats));

    Tensor interacted;
    {
        ScopedOpTimer timer(stats, OpClass::Interaction);
        if (cfg.interaction == InteractionKind::GmfConcat) {
            // NCF: tables 0/1 are the MF user/item pair -> GMF
            // product; remaining tables feed the MLP path.
            drs_assert(pooled.size() >= 2, "GMF needs two MF tables");
            Tensor gmf;
            elementwiseMul(pooled[0], pooled[1], gmf);
            std::vector<const Tensor*> ptrs{&gmf};
            for (size_t i = 2; i < pooled.size(); i++)
                ptrs.push_back(&pooled[i]);
            interacted = concatCols(ptrs);
        } else if (cfg.interaction == InteractionKind::Sum) {
            std::vector<const Tensor*> ptrs;
            for (const auto& p : parts)
                ptrs.push_back(&p);
            for (const auto& p : pooled)
                ptrs.push_back(&p);
            interacted = elementwiseSum(ptrs);
        } else {
            std::vector<const Tensor*> ptrs;
            for (const auto& p : parts)
                ptrs.push_back(&p);
            for (const auto& p : pooled)
                ptrs.push_back(&p);
            interacted = concatCols(ptrs);
        }
    }

    // Shared Predict-FC trunk, then one CTR head per task.
    const Tensor trunk = predictorTrunk.forward(interacted, stats);
    Tensor out = Tensor::mat(bs, cfg.numTasks);
    {
        ScopedOpTimer timer(stats, OpClass::Fc);
        Tensor ctr;
        for (size_t t = 0; t < cfg.numTasks; t++) {
            taskHeads[t].forward(trunk, ctr);
            for (size_t i = 0; i < bs; i++)
                out.at(i, t) = ctr.at(i, 0);
        }
    }
    return out;
}

OperatorStats
RecModel::measureBreakdown(size_t batch_size, size_t iters, Rng& rng) const
{
    OperatorStats stats;
    for (size_t it = 0; it < iters; it++) {
        const RecBatch batch = makeBatch(batch_size, rng);
        forward(batch, &stats);
    }
    return stats;
}

uint64_t
RecModel::denseFlopsPerSample() const
{
    uint64_t flops = 0;
    if (denseStack)
        flops += denseStack->flopsPerSample();
    flops += predictorTrunk.flopsPerSample();
    for (const FcLayer& head : taskHeads)
        flops += head.flopsPerSample();
    return flops;
}

uint64_t
RecModel::attentionFlopsPerSample() const
{
    return attention ? attention->flopsPerPair() * cfg.seqLen : 0;
}

uint64_t
RecModel::recurrentFlopsPerSample() const
{
    uint64_t flops = 0;
    if (extractionGru)
        flops += extractionGru->flopsPerSample(cfg.seqLen);
    if (evolutionGru)
        flops += evolutionGru->flopsPerSample(cfg.seqLen);
    return flops;
}

uint64_t
RecModel::sequenceFlopsPerSample() const
{
    return attentionFlopsPerSample() + recurrentFlopsPerSample();
}

uint64_t
RecModel::flopsPerSample() const
{
    return denseFlopsPerSample() + sequenceFlopsPerSample();
}

uint64_t
RecModel::embeddingBytesPerSample() const
{
    uint64_t bytes = 0;
    if (embeddings)
        bytes += embeddings->bytesPerSample();
    if (behaviorTable) {
        bytes += static_cast<uint64_t>(cfg.seqLen + 1) * cfg.embeddingDim *
                 sizeof(float);
    }
    return bytes;
}

uint64_t
RecModel::denseParamBytes() const
{
    uint64_t bytes = 0;
    if (denseStack)
        bytes += denseStack->paramBytes();
    bytes += predictorTrunk.paramBytes();
    for (const FcLayer& head : taskHeads)
        bytes += head.paramBytes();
    return bytes;
}

uint64_t
RecModel::logicalEmbeddingBytes() const
{
    uint64_t bytes = 0;
    if (embeddings)
        bytes += embeddings->logicalBytes();
    if (behaviorTable)
        bytes += behaviorTable->logicalBytes();
    return bytes;
}

RecModel
buildModel(ModelId id, uint64_t seed, const ModelScale& scale)
{
    return RecModel(modelConfig(id), seed, scale);
}

} // namespace deeprecsys
