#include "attention.hh"

#include <algorithm>

namespace deeprecsys {

LocalActivationUnit::LocalActivationUnit(size_t dim, size_t hidden, Rng& rng)
    : dim_(dim), scorer({3 * dim, hidden, 1}, rng, Activation::Sigmoid)
{
    drs_assert(dim > 0 && hidden > 0, "attention dims must be positive");
}

const Tensor&
LocalActivationUnit::scores(const float* behaviors, size_t seq,
                            const float* candidate,
                            AttentionScratch& scratch,
                            OperatorStats* stats) const
{
    ScopedOpTimer timer(stats, OpClass::Attention);
    drs_assert(seq > 0, "attention over an empty sequence");

    // Pack [behavior, candidate, behavior*candidate] rows, score all
    // pairs with one FC pass.
    Tensor& packed = scratch.packed;
    packed.resize({seq, 3 * dim_});
    for (size_t t = 0; t < seq; t++) {
        const float* b = behaviors + t * dim_;
        float* dst = packed.row(t);
        for (size_t d = 0; d < dim_; d++) {
            dst[d] = b[d];
            dst[dim_ + d] = candidate[d];
            dst[2 * dim_ + d] = b[d] * candidate[d];
        }
    }
    // Note: the scorer is an FC stack, but its time is the attention
    // unit's time; charge it to Attention, not Fc, to match Figure 3's
    // operator accounting. Pass nullptr so Mlp does not double-charge.
    return scorer.forward(packed, scratch.layers[0], scratch.layers[1],
                          nullptr);
}

void
LocalActivationUnit::pool(const Tensor& behaviors, const Tensor& candidates,
                          Tensor& out, AttentionScratch& scratch,
                          OperatorStats* stats) const
{
    drs_assert(behaviors.rank() == 3, "behaviors must be [batch, seq, dim]");
    drs_assert(behaviors.dim(2) == dim_, "behavior dim mismatch");
    drs_assert(candidates.rank() == 2 && candidates.dim(1) == dim_,
               "candidates must be [batch, dim]");
    const size_t batch = behaviors.dim(0);
    const size_t seq = behaviors.dim(1);
    drs_assert(candidates.dim(0) == batch, "batch size mismatch");

    out.resize({batch, dim_});
    for (size_t i = 0; i < batch; i++) {
        // One sample's behaviors are seq contiguous rows of dim.
        const float* sample = behaviors.data() + i * seq * dim_;
        const float* w =
            scores(sample, seq, candidates.row(i), scratch, stats).data();

        ScopedOpTimer timer(stats, OpClass::Attention);
        float* dst = out.row(i);
        std::fill(dst, dst + dim_, 0.0f);
        for (size_t t = 0; t < seq; t++) {
            const float* b = sample + t * dim_;
            for (size_t d = 0; d < dim_; d++)
                dst[d] += w[t] * b[d];
        }
    }
}

} // namespace deeprecsys
