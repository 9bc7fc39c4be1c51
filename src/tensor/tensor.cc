#include "tensor.hh"

#include <algorithm>
#include <cmath>

namespace deeprecsys {

namespace {

size_t
shapeNumel(const std::vector<size_t>& shape)
{
    size_t n = 1;
    for (size_t d : shape)
        n *= d;
    return shape.empty() ? 0 : n;
}

} // namespace

Tensor::Tensor(std::vector<size_t> shape)
    : shape_(std::move(shape)), data_(shapeNumel(shape_), 0.0f)
{
    drs_assert(shape_.size() >= 1 && shape_.size() <= 3,
               "tensor rank must be 1..3, got ", shape_.size());
}

Tensor::Tensor(std::vector<size_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data))
{
    drs_assert(shape_.size() >= 1 && shape_.size() <= 3,
               "tensor rank must be 1..3, got ", shape_.size());
    drs_assert(data_.size() == shapeNumel(shape_),
               "data size ", data_.size(), " does not match shape numel ",
               shapeNumel(shape_));
}

float&
Tensor::at(size_t i)
{
    drs_assert(i < data_.size(), "flat index out of range");
    return data_[i];
}

float
Tensor::at(size_t i) const
{
    drs_assert(i < data_.size(), "flat index out of range");
    return data_[i];
}

float
Tensor::at(size_t r, size_t c) const
{
    drs_assert(rank() == 2, "2-index access on non-matrix");
    drs_assert(r < shape_[0] && c < shape_[1], "matrix index out of range");
    return data_[r * shape_[1] + c];
}

float*
Tensor::row(size_t r)
{
    drs_assert(rank() >= 2, "row access on rank-1 tensor");
    drs_assert(r < shape_[0], "row index out of range");
    return data_.data() + r * rowSize();
}

const float*
Tensor::row(size_t r) const
{
    drs_assert(rank() >= 2, "row access on rank-1 tensor");
    drs_assert(r < shape_[0], "row index out of range");
    return data_.data() + r * rowSize();
}

size_t
Tensor::rowSize() const
{
    drs_assert(rank() >= 2, "rowSize on rank-1 tensor");
    size_t n = 1;
    for (size_t d = 1; d < shape_.size(); d++)
        n *= shape_[d];
    return n;
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Tensor::resize(std::initializer_list<size_t> shape)
{
    drs_assert(shape.size() >= 1 && shape.size() <= 3,
               "tensor rank must be 1..3, got ", shape.size());
    shape_.assign(shape);
    data_.resize(shapeNumel(shape_));
}

void
matmulBiasTransB(const float* a, size_t lda, size_t m, const Tensor& b,
                 const Tensor& bias, float* out, size_t ldc)
{
    drs_assert(b.rank() == 2, "matmul needs a weight matrix");
    const size_t n = b.dim(0);
    const size_t k = b.dim(1);
    drs_assert(lda >= k && ldc >= n, "row strides narrower than rows");
    drs_assert(bias.numel() == n, "bias size mismatch");

    const float* b_data = b.data();
    const float* bias_data = bias.data();

    // Eight independent accumulator lanes break the serial FP-add
    // chain so the compiler can vectorize the dot product without
    // -ffast-math reassociation.
    constexpr size_t lanes = 8;
    for (size_t i = 0; i < m; i++) {
        const float* a_row = a + i * lda;
        float* out_row = out + i * ldc;
        for (size_t j = 0; j < n; j++) {
            const float* b_row = b_data + j * k;
            float acc[lanes] = {};
            const size_t vec_end = k - (k % lanes);
            for (size_t p = 0; p < vec_end; p += lanes) {
                for (size_t l = 0; l < lanes; l++)
                    acc[l] += a_row[p + l] * b_row[p + l];
            }
            float total = bias_data[j];
            for (size_t p = vec_end; p < k; p++)
                total += a_row[p] * b_row[p];
            for (size_t l = 0; l < lanes; l++)
                total += acc[l];
            out_row[j] = total;
        }
    }
}

void
reluInPlace(float* data, size_t n)
{
    for (size_t i = 0; i < n; i++)
        data[i] = data[i] > 0.0f ? data[i] : 0.0f;
}

void
sigmoidInPlace(float* data, size_t n)
{
    for (size_t i = 0; i < n; i++)
        data[i] = 1.0f / (1.0f + std::exp(-data[i]));
}

void
concatCols(std::span<const Tensor* const> parts, Tensor& out)
{
    drs_assert(!parts.empty(), "concat of zero tensors");
    const size_t rows = parts.front()->dim(0);
    size_t cols = 0;
    for (const Tensor* p : parts) {
        drs_assert(p->rank() == 2, "concatCols needs matrices");
        drs_assert(p->dim(0) == rows, "concatCols row count mismatch");
        cols += p->dim(1);
    }
    out.resize({rows, cols});
    for (size_t r = 0; r < rows; r++) {
        float* dst = out.row(r);
        for (const Tensor* p : parts) {
            const float* src = p->row(r);
            dst = std::copy(src, src + p->dim(1), dst);
        }
    }
}

} // namespace deeprecsys
