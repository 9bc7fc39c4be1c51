/**
 * @file
 * GRU and attention-gated GRU (AUGRU) layers for DIEN.
 *
 * DIEN processes the user-behavior embedding sequence with a GRU
 * (interest extraction) followed by an attention-gated GRU whose
 * update gate is scaled by the attention score of each step against
 * the candidate item (interest evolution).
 */

#ifndef DRS_NN_GRU_HH
#define DRS_NN_GRU_HH

#include <vector>

#include "base/random.hh"
#include "nn/op_stats.hh"
#include "tensor/tensor.hh"

namespace deeprecsys {

/** Single GRU cell with optional per-step update-gate scaling. */
class GruCell
{
  public:
    /**
     * @param input_dim width of each sequence element
     * @param hidden_dim width of the hidden state
     * @param rng weight initialization stream
     */
    GruCell(size_t input_dim, size_t hidden_dim, Rng& rng);

    /**
     * One step: h' = (1 - a*z) . h + (a*z) . h_cand.
     *
     * @param x [input_dim] input at this step
     * @param h [hidden_dim] state, updated in place
     * @param gates [6 * hidden_dim] caller scratch the step overwrites
     * @param att_scale attention scaling of the update gate
     *        (1.0 recovers a standard GRU step)
     */
    void step(const float* x, float* h, float* gates,
              float att_scale = 1.0f) const;

    size_t inputDim() const { return inputDim_; }
    size_t hiddenDim() const { return hiddenDim_; }

    /** MACs for one step. */
    uint64_t flopsPerStep() const;

  private:
    size_t inputDim_;
    size_t hiddenDim_;
    // Gate weights: [3*hidden, input] and [3*hidden, hidden], laid out
    // as (reset, update, candidate) blocks.
    Tensor wx;
    Tensor wh;
    Tensor bias;    ///< [3*hidden]
};

/**
 * Runs a GRU over [batch, seq, dim] sequences; optionally gates the
 * update with per-step attention scores (AUGRU).
 */
class GruLayer
{
  public:
    GruLayer(size_t input_dim, size_t hidden_dim, Rng& rng);

    /**
     * Forward over a batch of sequences into final hidden states.
     *
     * @param seq [batch, seq_len, input_dim]
     * @param att_scores optional [batch, seq_len] update-gate scales
     * @param h becomes [batch, hidden_dim], in its own storage
     * @param gates step scratch, resized in its own storage
     * @param stats optional timing sink (Recurrent class)
     */
    void forward(const Tensor& seq, const Tensor* att_scores, Tensor& h,
                 Tensor& gates, OperatorStats* stats = nullptr) const;

    /**
     * Forward writing every step's hidden state into @p all
     * ([batch, seq_len, hidden_dim]) for feeding a downstream AUGRU.
     */
    void forwardAllStates(const Tensor& seq, Tensor& all, Tensor& gates,
                          OperatorStats* stats = nullptr) const;

    /** MACs per sample for a given sequence length. */
    uint64_t flopsPerSample(size_t seq_len) const;

  private:
    GruCell cell;
};

} // namespace deeprecsys

#endif // DRS_NN_GRU_HH
