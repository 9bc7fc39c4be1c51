/**
 * @file
 * Multi-layer perceptron stacks (the Dense-FC and Predict-FC stacks of
 * the generalized recommendation architecture, Figure 2).
 */

#ifndef DRS_NN_MLP_HH
#define DRS_NN_MLP_HH

#include <cstdint>
#include <vector>

#include "base/random.hh"
#include "nn/op_stats.hh"
#include "tensor/tensor.hh"

namespace deeprecsys {

/** Activation applied after a fully-connected layer. */
enum class Activation { Relu, Sigmoid };

/** One fully-connected layer: y = act(x * W^T + b). */
class FcLayer
{
  public:
    /**
     * @param in_dim input feature width
     * @param out_dim output feature width
     * @param act post-layer activation
     * @param rng weight initialization stream (Xavier-uniform)
     */
    FcLayer(size_t in_dim, size_t out_dim, Activation act, Rng& rng);

    /** Forward pass; x is [batch, inDim], out becomes [batch, outDim]. */
    void forward(const Tensor& x, Tensor& out) const;

    /**
     * Forward pass into rows of stride @p ldo: row i of the output is
     * out[i * ldo, i * ldo + outDim), so a layer can fill a column
     * slice of a wider matrix (a task head its column of the output).
     */
    void forward(const Tensor& x, float* out, size_t ldo) const;

    size_t inDim() const { return weights.dim(1); }
    size_t outDim() const { return weights.dim(0); }

    /** Multiply-accumulate count for one sample. */
    uint64_t flopsPerSample() const { return 2ull * inDim() * outDim(); }

    /** Parameter bytes (weights + bias, float32). */
    uint64_t paramBytes() const;

  private:
    Tensor weights;     ///< [outDim, inDim]
    Tensor bias;        ///< [outDim]
    Activation act;
};

/**
 * A stack of fully-connected layers. Hidden layers use ReLU; the output
 * activation is configurable (recommendation predictors end in sigmoid
 * to produce a click-through-rate probability).
 */
class Mlp
{
  public:
    Mlp() = default;

    /**
     * @param dims layer widths, e.g. {256, 128, 32} builds 256->128->32
     * @param rng weight initialization stream
     * @param final_act activation after the last layer
     */
    Mlp(const std::vector<size_t>& dims, Rng& rng,
        Activation final_act = Activation::Relu);

    /** True when the stack has no layers (absent Dense-FC stack). */
    bool empty() const { return layers.empty(); }

    /** Output width of the last layer. */
    size_t outDim() const;

    /**
     * Forward pass through all layers, alternating between the two
     * caller buffers @p ping and @p pong (neither may be @p x); returns
     * the one holding the output. They grow to the widest layer once
     * and are then reused. Time is charged to OpClass::Fc of @p stats
     * when non-null.
     */
    const Tensor& forward(const Tensor& x, Tensor& ping, Tensor& pong,
                          OperatorStats* stats = nullptr) const;

    /** Multiply-accumulate count for one sample across all layers. */
    uint64_t flopsPerSample() const;

    /** Parameter bytes across all layers. */
    uint64_t paramBytes() const;

    /** Number of layers. */
    size_t numLayers() const { return layers.size(); }

  private:
    std::vector<FcLayer> layers;
};

} // namespace deeprecsys

#endif // DRS_NN_MLP_HH
