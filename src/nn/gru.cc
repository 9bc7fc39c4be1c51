#include "gru.hh"

#include <algorithm>
#include <cmath>

namespace deeprecsys {

namespace {

float
sigmoidScalar(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

} // namespace

GruCell::GruCell(size_t input_dim, size_t hidden_dim, Rng& rng)
    : inputDim_(input_dim), hiddenDim_(hidden_dim),
      wx(Tensor::mat(3 * hidden_dim, input_dim)),
      wh(Tensor::mat(3 * hidden_dim, hidden_dim)),
      bias(Tensor::vec(3 * hidden_dim))
{
    drs_assert(input_dim > 0 && hidden_dim > 0, "GRU dims must be positive");
    const double bx = std::sqrt(6.0 / double(input_dim + hidden_dim));
    for (size_t i = 0; i < wx.numel(); i++)
        wx.at(i) = static_cast<float>(rng.uniform(-bx, bx));
    const double bh = std::sqrt(6.0 / double(2 * hidden_dim));
    for (size_t i = 0; i < wh.numel(); i++)
        wh.at(i) = static_cast<float>(rng.uniform(-bh, bh));
    bias.fill(0.0f);
}

void
GruCell::step(const float* x, float* h, float* gates, float att_scale) const
{
    const size_t hd = hiddenDim_;
    // gates = Wx*x + Wh*h + b, blocks: [reset | update | candidate-x].
    float* gx = gates;
    float* gh = gates + 3 * hd;
    for (size_t g = 0; g < 3 * hd; g++) {
        const float* wrow = wx.row(g);
        float acc = bias.at(g);
        for (size_t k = 0; k < inputDim_; k++)
            acc += wrow[k] * x[k];
        gx[g] = acc;
    }
    for (size_t g = 0; g < 3 * hd; g++) {
        const float* wrow = wh.row(g);
        float acc = 0.0f;
        for (size_t k = 0; k < hd; k++)
            acc += wrow[k] * h[k];
        gh[g] = acc;
    }
    for (size_t d = 0; d < hd; d++) {
        const float r = sigmoidScalar(gx[d] + gh[d]);
        const float z_raw = sigmoidScalar(gx[hd + d] + gh[hd + d]);
        // AUGRU: attention scales the update gate so irrelevant steps
        // barely move the interest state.
        const float z = att_scale * z_raw;
        const float cand = std::tanh(gx[2 * hd + d] + r * gh[2 * hd + d]);
        h[d] = (1.0f - z) * h[d] + z * cand;
    }
}

uint64_t
GruCell::flopsPerStep() const
{
    // Two MACs per weight element (multiply + add) for both mat-vecs.
    return 2ull * (wx.numel() + wh.numel());
}

GruLayer::GruLayer(size_t input_dim, size_t hidden_dim, Rng& rng)
    : cell(input_dim, hidden_dim, rng)
{
}

void
GruLayer::forward(const Tensor& seq, const Tensor* att_scores, Tensor& h,
                  Tensor& gates, OperatorStats* stats) const
{
    ScopedOpTimer timer(stats, OpClass::Recurrent);
    drs_assert(seq.rank() == 3, "GRU input must be [batch, seq, dim]");
    const size_t batch = seq.dim(0);
    const size_t steps = seq.dim(1);
    const size_t in_dim = seq.dim(2);
    drs_assert(in_dim == cell.inputDim(), "GRU input dim mismatch");
    if (att_scores) {
        drs_assert(att_scores->rank() == 2 && att_scores->dim(0) == batch &&
                   att_scores->dim(1) == steps,
                   "attention scores must be [batch, seq]");
    }

    h.resize({batch, cell.hiddenDim()});
    gates.resize({6 * cell.hiddenDim()});
    for (size_t i = 0; i < batch; i++) {
        float* state = h.row(i);
        std::fill(state, state + cell.hiddenDim(), 0.0f);
        for (size_t t = 0; t < steps; t++) {
            const float* x = seq.data() + (i * steps + t) * in_dim;
            const float scale =
                att_scores ? att_scores->at(i, t) : 1.0f;
            cell.step(x, state, gates.data(), scale);
        }
    }
}

void
GruLayer::forwardAllStates(const Tensor& seq, Tensor& all, Tensor& gates,
                           OperatorStats* stats) const
{
    ScopedOpTimer timer(stats, OpClass::Recurrent);
    drs_assert(seq.rank() == 3, "GRU input must be [batch, seq, dim]");
    const size_t batch = seq.dim(0);
    const size_t steps = seq.dim(1);
    const size_t in_dim = seq.dim(2);
    drs_assert(in_dim == cell.inputDim(), "GRU input dim mismatch");

    const size_t hd = cell.hiddenDim();
    all.resize({batch, steps, hd});
    gates.resize({6 * hd});
    for (size_t i = 0; i < batch; i++) {
        // Each step starts from the previous step's state (zero at the
        // first) and updates it in place in its own row of @p all.
        float* state = all.data() + i * steps * hd;
        for (size_t t = 0; t < steps; t++, state += hd) {
            if (t == 0)
                std::fill(state, state + hd, 0.0f);
            else
                std::copy(state - hd, state, state);
            const float* x = seq.data() + (i * steps + t) * in_dim;
            cell.step(x, state, gates.data());
        }
    }
}

uint64_t
GruLayer::flopsPerSample(size_t seq_len) const
{
    return cell.flopsPerStep() * seq_len;
}

} // namespace deeprecsys
