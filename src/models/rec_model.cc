#include "rec_model.hh"

#include <algorithm>
#include <array>

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
        batch.dense.resize({batch_size, cfg.denseInputDim});
        float* dense = batch.dense.data();
        for (size_t i = 0; i < batch.dense.numel(); i++)
            dense[i] = static_cast<float>(rng.normal(0.0, 1.0));
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

void
RecModel::sequencePath(const RecBatch& batch, ForwardScratch& s,
                       OperatorStats* stats) const
{
    const size_t bs = batch.batchSize();
    const size_t dim = cfg.embeddingDim;
    behaviorTable->gatherSequence(batch.behaviors, s.behaviors, stats);
    // One lookup per sample: a concat bag gathers it as [batch, dim].
    s.candidates.resize({bs, dim});
    behaviorTable->bagForward(batch.candidates, Pooling::Concat,
                              s.candidates.data(), dim, stats);

    if (!cfg.useRecurrent) {
        // DIN: attention-pool behaviors against the candidate; the
        // interaction then concats it with the candidate embedding.
        attention->pool(s.behaviors, s.candidates, s.interest, s.attention,
                        stats);
        return;
    }

    // DIEN: interest extraction GRU over raw behaviors, attention
    // scores of each hidden state vs the candidate (projected), then
    // an attention-gated GRU evolves the interest state.
    extractionGru->forwardAllStates(s.behaviors, s.states, s.gates, stats);
    const size_t steps = cfg.seqLen;

    // Candidate must match the attention dim (gruHidden); DIEN uses
    // equal embedding and hidden dims so reuse directly.
    drs_assert(cfg.gruHidden == cfg.embeddingDim,
               "DIEN config requires gruHidden == embeddingDim");
    s.scores.resize({bs, steps});
    for (size_t i = 0; i < bs; i++) {
        const float* sample = s.states.data() + i * steps * cfg.gruHidden;
        const Tensor& w = attention->scores(sample, steps, s.candidates.row(i),
                                            s.attention, stats);
        std::copy(w.data(), w.data() + steps, s.scores.row(i));
    }
    evolutionGru->forward(s.states, &s.scores, s.interest, s.gates, stats);
}

void
RecModel::interact(size_t bs, const Tensor* dense, ForwardScratch& s) const
{
    if (cfg.interaction == InteractionKind::GmfConcat) {
        // NCF: tables 0/1 are the MF user/item pair -> GMF product;
        // remaining tables feed the MLP path.
        drs_assert(embeddings && embeddings->numTables() >= 2,
                   "GMF needs two MF tables");
        const size_t pooled = s.pooled.dim(1);
        const size_t w = pooled / embeddings->numTables();
        s.interaction.resize({bs, pooled - w});
        for (size_t r = 0; r < bs; r++) {
            const float* src = s.pooled.row(r);
            float* dst = s.interaction.row(r);
            for (size_t d = 0; d < w; d++)
                dst[d] = src[d] * src[w + d];
            std::copy(src + 2 * w, src + pooled, dst + w);
        }
        return;
    }

    std::array<const Tensor*, 4> parts{};
    size_t n = 0;
    if (dense)
        parts[n++] = dense;
    if (cfg.useAttention || cfg.useRecurrent) {
        parts[n++] = &s.interest;
        parts[n++] = &s.candidates;
    }
    if (embeddings)
        parts[n++] = &s.pooled;
    concatCols({parts.data(), n}, s.interaction);
}

const Tensor&
RecModel::forward(const RecBatch& batch, ForwardScratch& s,
                  OperatorStats* stats) const
{
    const size_t bs = batch.batchSize();
    drs_assert(bs > 0, "forward on empty batch");
    s.out.resize({bs, cfg.numTasks});

    // Dense path: the stack's output, or the raw features (WnD bypass).
    const Tensor* dense = nullptr;
    if (denseStack)
        dense = &denseStack->forward(batch.dense, s.act[0], s.act[1], stats);
    else if (cfg.denseInputDim > 0)
        dense = &batch.dense;

    // Sparse path: each table's bag fills its slice of one block.
    if (embeddings)
        embeddings->forward(batch.sparse, s.pooled, stats);

    // Sequence path (DIN / DIEN).
    if (cfg.useAttention || cfg.useRecurrent)
        sequencePath(batch, s, stats);

    {
        ScopedOpTimer timer(stats, OpClass::Interaction);
        interact(bs, dense, s);
    }

    // Shared Predict-FC trunk (reusing the dense stack's buffers, whose
    // output the interaction has copied), then one CTR head per task
    // writing its column of the output.
    const Tensor& trunk =
        predictorTrunk.forward(s.interaction, s.act[0], s.act[1], stats);
    {
        ScopedOpTimer timer(stats, OpClass::Fc);
        for (size_t t = 0; t < cfg.numTasks; t++)
            taskHeads[t].forward(trunk, s.out.data() + t, cfg.numTasks);
    }
    return s.out;
}

Tensor
RecModel::forward(const RecBatch& batch, OperatorStats* stats) const
{
    ForwardScratch scratch;
    forward(batch, scratch, stats);
    return std::move(scratch.out);
}

void
RecModel::reserve(size_t max_batch, RecBatch& batch,
                  ForwardScratch& scratch) const
{
    // Every buffer's size grows with the batch, so one pass at the
    // largest size leaves each at its peak.
    Rng rng(0);
    makeBatch(max_batch, rng, batch);
    forward(batch, scratch);
}

OperatorStats
RecModel::measureBreakdown(size_t batch_size, size_t iters, Rng& rng) const
{
    OperatorStats stats;
    RecBatch batch;
    ForwardScratch scratch;
    for (size_t it = 0; it < iters; it++) {
        makeBatch(batch_size, rng, batch);
        forward(batch, scratch, &stats);
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

} // namespace deeprecsys
