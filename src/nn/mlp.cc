#include "mlp.hh"

#include <cmath>

namespace deeprecsys {

namespace {

void
applyActivation(float* data, size_t n, Activation act)
{
    switch (act) {
      case Activation::Relu:
        reluInPlace(data, n);
        break;
      case Activation::Sigmoid:
        sigmoidInPlace(data, n);
        break;
    }
}

} // namespace

FcLayer::FcLayer(size_t in_dim, size_t out_dim, Activation act, Rng& rng)
    : weights(Tensor::mat(out_dim, in_dim)), bias(Tensor::vec(out_dim)),
      act(act)
{
    drs_assert(in_dim > 0 && out_dim > 0, "FC layer dims must be positive");
    // Xavier-uniform keeps activations in a sane range so sigmoid
    // outputs are meaningful CTR-like values.
    const double bound =
        std::sqrt(6.0 / static_cast<double>(in_dim + out_dim));
    for (size_t i = 0; i < weights.numel(); i++)
        weights.at(i) = static_cast<float>(rng.uniform(-bound, bound));
    bias.fill(0.0f);
}

void
FcLayer::forward(const Tensor& x, Tensor& out) const
{
    out.resize({x.dim(0), outDim()});
    forward(x, out.data(), outDim());
}

void
FcLayer::forward(const Tensor& x, float* out, size_t ldo) const
{
    drs_assert(x.rank() == 2 && x.dim(1) == inDim(),
               "FC input width ", x.dim(1), " != expected ", inDim());
    const size_t rows = x.dim(0);
    matmulBiasTransB(x.data(), inDim(), rows, weights, bias, out, ldo);
    for (size_t i = 0; i < rows; i++)
        applyActivation(out + i * ldo, outDim(), act);
}

uint64_t
FcLayer::paramBytes() const
{
    return (weights.numel() + bias.numel()) * sizeof(float);
}

Mlp::Mlp(const std::vector<size_t>& dims, Rng& rng, Activation final_act)
{
    drs_assert(dims.size() >= 2, "MLP needs at least input and output dims");
    for (size_t i = 0; i + 1 < dims.size(); i++) {
        const bool last = (i + 2 == dims.size());
        layers.emplace_back(dims[i], dims[i + 1],
                            last ? final_act : Activation::Relu, rng);
    }
}

size_t
Mlp::outDim() const
{
    drs_assert(!layers.empty(), "outDim of empty MLP");
    return layers.back().outDim();
}

const Tensor&
Mlp::forward(const Tensor& x, Tensor& ping, Tensor& pong,
             OperatorStats* stats) const
{
    ScopedOpTimer timer(stats, OpClass::Fc);
    drs_assert(!layers.empty(), "forward through empty MLP");
    drs_assert(&x != &ping && &x != &pong && &ping != &pong,
               "MLP buffers must be distinct from each other and x");
    // The first layer reads the input in place: no copy of x.
    Tensor* cur = &ping;
    Tensor* next = &pong;
    layers.front().forward(x, *cur);
    for (size_t i = 1; i < layers.size(); i++) {
        layers[i].forward(*cur, *next);
        std::swap(cur, next);
    }
    return *cur;
}

uint64_t
Mlp::flopsPerSample() const
{
    uint64_t flops = 0;
    for (const FcLayer& layer : layers)
        flops += layer.flopsPerSample();
    return flops;
}

uint64_t
Mlp::paramBytes() const
{
    uint64_t bytes = 0;
    for (const FcLayer& layer : layers)
        bytes += layer.paramBytes();
    return bytes;
}

} // namespace deeprecsys
