/**
 * @file
 * DIN-style local activation unit (attention over user behaviors).
 *
 * For each candidate item, every historical behavior embedding is
 * scored by a small FC network applied to [behavior, candidate,
 * behavior*candidate]; the behaviors are then combined as a weighted
 * sum. This is the operator mix that makes DIN's runtime split between
 * concat, FC, and sum (paper Section III-A.2).
 */

#ifndef DRS_NN_ATTENTION_HH
#define DRS_NN_ATTENTION_HH

#include "base/random.hh"
#include "nn/mlp.hh"
#include "nn/op_stats.hh"
#include "tensor/tensor.hh"

namespace deeprecsys {

/** Buffers one scoring pass writes; a caller keeps one and reuses it. */
struct AttentionScratch
{
    Tensor packed;      ///< [seq, 3*dim] scorer input
    Tensor layers[2];   ///< scorer FC ping-pong; ends as [seq, 1]
};

/** Local activation unit over a fixed-length behavior sequence. */
class LocalActivationUnit
{
  public:
    /**
     * @param dim embedding dimension of behaviors and candidate
     * @param hidden width of the scoring FC's hidden layer
     * @param rng weight initialization stream
     */
    LocalActivationUnit(size_t dim, size_t hidden, Rng& rng);

    /**
     * Compute per-behavior attention scores.
     *
     * @param behaviors @p seq rows of dim() floats: one sample's
     *        behavior embeddings
     * @param candidate [dim] candidate item embedding
     * @param scratch buffers the pass writes
     * @param stats optional operator timing sink (Attention class)
     * @return [seq, 1] scores (unnormalized, post-sigmoid weights),
     *         held in @p scratch
     */
    const Tensor& scores(const float* behaviors, size_t seq,
                         const float* candidate, AttentionScratch& scratch,
                         OperatorStats* stats = nullptr) const;

    /**
     * Weighted-sum pooling of a batch of behavior sequences.
     *
     * @param behaviors [batch, seq_len, dim]
     * @param candidates [batch, dim]
     * @param out becomes [batch, dim], the attention-pooled behavior
     *        representation, in its own storage
     * @param scratch buffers the scoring passes write
     */
    void pool(const Tensor& behaviors, const Tensor& candidates, Tensor& out,
              AttentionScratch& scratch,
              OperatorStats* stats = nullptr) const;

    size_t dim() const { return dim_; }

    /** MACs per (behavior, candidate) pair scoring. */
    uint64_t flopsPerPair() const { return scorer.flopsPerSample(); }

  private:
    size_t dim_;
    Mlp scorer;     ///< [3*dim] -> hidden -> 1
};

} // namespace deeprecsys

#endif // DRS_NN_ATTENTION_HH
