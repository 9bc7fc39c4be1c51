/**
 * @file
 * Minimal dense float32 tensor used by the NN substrate.
 *
 * Recommendation inference needs only rank-1/2/3 dense tensors; this
 * keeps the type simple: contiguous row-major storage, value semantics,
 * and explicit shape checks that panic on misuse (internal invariants).
 */

#ifndef DRS_TENSOR_TENSOR_HH
#define DRS_TENSOR_TENSOR_HH

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "base/logging.hh"

namespace deeprecsys {

/** Dense row-major float32 tensor of rank 1..3. */
class Tensor
{
  public:
    /** Empty (rank-0, zero elements) tensor. */
    Tensor() = default;

    /** Zero-filled tensor with the given shape. */
    explicit Tensor(std::vector<size_t> shape);

    /** Tensor with the given shape and flat data (size must match). */
    Tensor(std::vector<size_t> shape, std::vector<float> data);

    /** Convenience rank-1 constructor. */
    static Tensor vec(size_t n) { return Tensor({n}); }

    /** Convenience rank-2 constructor. */
    static Tensor mat(size_t rows, size_t cols)
    {
        return Tensor({rows, cols});
    }

    /** Number of dimensions. */
    size_t rank() const { return shape_.size(); }

    /** Size along the given dimension. */
    size_t
    dim(size_t d) const
    {
        drs_assert(d < shape_.size(), "dim index out of range");
        return shape_[d];
    }

    /** Full shape vector. */
    const std::vector<size_t>& shape() const { return shape_; }

    /** Total number of elements. */
    size_t numel() const { return data_.size(); }

    /** True when the tensor holds no elements. */
    bool empty() const { return data_.empty(); }

    /** Flat element access. */
    float& at(size_t i);
    float at(size_t i) const;

    /** Rank-2 element read (row, col). */
    float at(size_t r, size_t c) const;

    /** Raw pointer to contiguous storage. */
    float* data() { return data_.data(); }
    const float* data() const { return data_.data(); }

    /** Pointer to the start of row r (rank >= 2). */
    float* row(size_t r);
    const float* row(size_t r) const;

    /** Elements per row for rank >= 2 tensors. */
    size_t rowSize() const;

    /** Fill every element with the given value. */
    void fill(float value);

    /**
     * Give this tensor @p shape in place, keeping the storage: it
     * reallocates only to grow past its capacity (or, for the shape
     * itself, past the largest rank it has held). Elements already
     * held keep their values and new ones are zero, so a caller that
     * reuses a tensor this way overwrites every element.
     */
    void resize(std::initializer_list<size_t> shape);

  private:
    std::vector<size_t> shape_;
    std::vector<float> data_;
};

/**
 * C = A * B^T + bias, the fully-connected primitive.
 *
 * A is [m, k] (batch of activations), B is [n, k] (weights stored one
 * output neuron per row, which makes the inner loop a dot product over
 * contiguous memory), bias is [n] and broadcast over rows. Operands
 * are row-strided: row i of A starts at a + i * lda, row i of C at
 * out + i * ldc, so C may be a column slice of a wider matrix. k is
 * b.dim(1).
 */
void matmulBiasTransB(const float* a, size_t lda, size_t m, const Tensor& b,
                      const Tensor& bias, float* out, size_t ldc);

/** In-place ReLU over @p n contiguous elements. */
void reluInPlace(float* data, size_t n);

/** In-place logistic sigmoid over @p n contiguous elements. */
void sigmoidInPlace(float* data, size_t n);

/**
 * Concatenate rank-2 tensors along columns into @p out, resized in
 * its own storage. All inputs must share the same row count.
 */
void concatCols(std::span<const Tensor* const> parts, Tensor& out);

} // namespace deeprecsys

#endif // DRS_TENSOR_TENSOR_HH
