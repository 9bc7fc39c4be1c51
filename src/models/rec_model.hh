/**
 * @file
 * The generalized neural recommendation model (paper Figure 2) and its
 * batched forward pass.
 *
 * A RecModel is instantiated from a ModelConfig and owns every
 * component the configuration enables: an optional Dense-FC stack,
 * a group of embedding tables, an optional attention unit and GRU
 * pair (DIN/DIEN), a feature-interaction operator, and one or more
 * Predict-FC stacks producing click-through-rate probabilities.
 */

#ifndef DRS_MODELS_REC_MODEL_HH
#define DRS_MODELS_REC_MODEL_HH

#include <memory>
#include <optional>
#include <vector>

#include "base/random.hh"
#include "models/model_config.hh"
#include "nn/attention.hh"
#include "nn/embedding.hh"
#include "nn/gru.hh"
#include "nn/mlp.hh"
#include "nn/op_stats.hh"
#include "tensor/tensor.hh"

namespace deeprecsys {

/**
 * One inference batch: each row is a (user, candidate item) pair whose
 * click-through rate the model scores. A recommendation *query*
 * ranking N items for one user becomes a batch of N such rows.
 */
struct RecBatch
{
    Tensor dense;                       ///< [batch, denseInputDim] or empty
    std::vector<SparseBatch> sparse;    ///< one per regular table
    SparseBatch behaviors;              ///< behavior-table lookups (seqLen each)
    SparseBatch candidates;             ///< candidate item (1 lookup each)

    /** Number of user-item pairs in the batch. */
    size_t batchSize() const;
};

/**
 * Every buffer one forward pass writes. A caller that keeps one and
 * hands it to each RecModel::forward allocates only when a batch
 * outgrows it; RecModel::reserve grows it up front.
 */
struct ForwardScratch
{
    Tensor act[2];          ///< Dense-FC and Predict-FC ping-pong
    Tensor pooled;          ///< [batch, pooledWidth] embedding bags
    Tensor interaction;     ///< [batch, interactionWidth] predictor input
    Tensor out;             ///< [batch, numTasks] CTR heads
    // Sequence path (DIN / DIEN).
    Tensor behaviors;       ///< [batch, seqLen, dim] gathered behaviors
    Tensor candidates;      ///< [batch, dim] candidate item embeddings
    Tensor states;          ///< DIEN: [batch, seqLen, gruHidden]
    Tensor scores;          ///< DIEN: [batch, seqLen] attention scores
    Tensor interest;        ///< [batch, dim] pooled or evolved interest
    Tensor gates;           ///< GRU step gates
    AttentionScratch attention;
};

/** Resource limits applied when materializing a model in memory. */
struct ModelScale
{
    /** Physical row cap per embedding table (memory bound). */
    uint64_t maxPhysicalRows = 1ull << 14;

    /** Tiny scale for unit tests: small tables, short sequences. */
    static ModelScale tiny() { return ModelScale{1ull << 8}; }
};

/** A fully materialized recommendation model. */
class RecModel
{
  public:
    /**
     * Build the model described by @p cfg. A table of more than
     * UINT32_MAX rows is a config error (lookups use 32-bit indices).
     * @param cfg architecture parameters
     * @param seed deterministic weight-initialization seed
     * @param scale memory residency limits
     */
    RecModel(const ModelConfig& cfg, uint64_t seed,
             const ModelScale& scale = ModelScale{});

    /** The configuration this model was built from. */
    const ModelConfig& config() const { return cfg; }

    /** Draw a random but well-formed input batch. */
    RecBatch makeBatch(size_t batch_size, Rng& rng) const;

    /**
     * Refill @p batch with the batch makeBatch(batch_size, rng) would
     * return, drawing the same numbers in the same order (dense
     * features, tables in order, behaviors, candidates), in the
     * storage @p batch already holds. A caller that keeps one batch
     * and refills it allocates only when a request outgrows it.
     */
    void makeBatch(size_t batch_size, Rng& rng, RecBatch& batch) const;

    /**
     * Score a batch; returns [batch, numTasks] CTR probabilities in
     * (0, 1), held in @p scratch.out. Every layer writes into
     * @p scratch, so a caller that reuses one scratch allocates only
     * when a batch outgrows it. Charges per-operator time to @p stats
     * when non-null.
     */
    const Tensor& forward(const RecBatch& batch, ForwardScratch& scratch,
                          OperatorStats* stats = nullptr) const;

    /** Score a batch into a fresh tensor (own scratch per call). */
    Tensor forward(const RecBatch& batch,
                   OperatorStats* stats = nullptr) const;

    /**
     * Grow @p batch and @p scratch to their size at @p max_batch
     * samples, by drawing one batch that large and scoring it: later
     * refills and forward passes of at most that many samples
     * allocate nothing.
     */
    void reserve(size_t max_batch, RecBatch& batch,
                 ForwardScratch& scratch) const;

    /**
     * Run @p iters timed forward passes at @p batch_size and return
     * the merged operator breakdown (Figure 3 measurement).
     */
    OperatorStats measureBreakdown(size_t batch_size, size_t iters,
                                   Rng& rng) const;

    /** Width of the feature-interaction output feeding the predictor. */
    size_t interactionWidth() const;

    // --- analytical accounting (roofline, cost model calibration) ---

    /** Dense multiply-accumulate FLOPs for one sample. */
    uint64_t denseFlopsPerSample() const;

    /** Attention-unit FLOPs for one sample (batch-parallel GEMMs). */
    uint64_t attentionFlopsPerSample() const;

    /** Recurrent (GRU/AUGRU) FLOPs for one sample (step-serial). */
    uint64_t recurrentFlopsPerSample() const;

    /** Attention + recurrent FLOPs for one sample. */
    uint64_t sequenceFlopsPerSample() const;

    /** Embedding bytes gathered for one sample (sparse traffic). */
    uint64_t embeddingBytesPerSample() const;

    /** MLP/attention/GRU parameter bytes (read once per batch). */
    uint64_t denseParamBytes() const;

    /** Logical embedding storage across all tables (can be GBs). */
    uint64_t logicalEmbeddingBytes() const;

  private:
    /**
     * Gather + pool the behavior path (attention / GRU) into
     * @p scratch's candidates and interest.
     */
    void sequencePath(const RecBatch& batch, ForwardScratch& scratch,
                      OperatorStats* stats) const;

    /**
     * Build @p scratch.interaction for @p bs samples from the dense
     * part (null when absent), the pooled block and the sequence path.
     */
    void interact(size_t bs, const Tensor* dense,
                  ForwardScratch& scratch) const;

    ModelConfig cfg;
    std::optional<Mlp> denseStack;
    std::optional<EmbeddingGroup> embeddings;
    std::optional<EmbeddingTable> behaviorTable;
    std::optional<LocalActivationUnit> attention;
    std::optional<GruLayer> extractionGru;  ///< DIEN interest extraction
    std::optional<GruLayer> evolutionGru;   ///< DIEN interest evolution
    /// Shared Predict-FC trunk; multi-task models (MT-WnD) branch into
    /// per-task output heads after the last hidden layer.
    Mlp predictorTrunk;
    std::vector<FcLayer> taskHeads;         ///< numTasks sigmoid heads
};

} // namespace deeprecsys

#endif // DRS_MODELS_REC_MODEL_HH
