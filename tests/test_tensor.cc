/**
 * @file
 * Unit tests for the dense tensor type and its kernels.
 */

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "tensor/tensor.hh"

namespace deeprecsys {
namespace {

/** C = A * B^T + bias over dense rows, into @p out resized to [m, n]. */
void
matmul(const Tensor& a, const Tensor& b, const Tensor& bias, Tensor& out)
{
    out.resize({a.dim(0), b.dim(0)});
    matmulBiasTransB(a.data(), a.dim(1), a.dim(0), b, bias, out.data(),
                     b.dim(0));
}

TEST(Tensor, DefaultIsEmpty)
{
    Tensor t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.numel(), 0u);
    EXPECT_EQ(t.rank(), 0u);
}

TEST(Tensor, ZeroInitialized)
{
    Tensor t({3, 4});
    EXPECT_EQ(t.numel(), 12u);
    for (size_t i = 0; i < t.numel(); i++)
        EXPECT_FLOAT_EQ(t.at(i), 0.0f);
}

TEST(Tensor, ShapeAccessors)
{
    Tensor t({2, 3, 5});
    EXPECT_EQ(t.rank(), 3u);
    EXPECT_EQ(t.dim(0), 2u);
    EXPECT_EQ(t.dim(1), 3u);
    EXPECT_EQ(t.dim(2), 5u);
    EXPECT_EQ(t.rowSize(), 15u);
}

TEST(Tensor, MatrixIndexing)
{
    Tensor t = Tensor::mat(2, 3);
    t.row(1)[2] = 7.0f;
    EXPECT_FLOAT_EQ(t.at(1 * 3 + 2), 7.0f);
    EXPECT_FLOAT_EQ(t.at(1, 2), 7.0f);
}

TEST(Tensor, DataConstructorValidatesSize)
{
    Tensor t({2, 2}, {1, 2, 3, 4});
    EXPECT_FLOAT_EQ(t.at(1, 1), 4.0f);
}

TEST(Tensor, FillSetsAll)
{
    Tensor t({5});
    t.fill(2.5f);
    for (size_t i = 0; i < 5; i++)
        EXPECT_FLOAT_EQ(t.at(i), 2.5f);
}

TEST(MatmulBiasTransB, KnownValues)
{
    // a = [1 2; 3 4], b (stored row-per-output) = [1 1; 2 0],
    // bias = [10, 20].
    Tensor a({2, 2}, {1, 2, 3, 4});
    Tensor b({2, 2}, {1, 1, 2, 0});
    Tensor bias({2}, {10, 20});
    Tensor out;
    matmul(a, b, bias, out);
    // Row 0: [1+2+10, 2+0+20] = [13, 22]
    // Row 1: [3+4+10, 6+0+20] = [17, 26]
    EXPECT_FLOAT_EQ(out.at(0, 0), 13.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(out.at(1, 0), 17.0f);
    EXPECT_FLOAT_EQ(out.at(1, 1), 26.0f);
}

TEST(MatmulBiasTransB, IdentityPassThrough)
{
    Tensor a({1, 3}, {2, -1, 5});
    Tensor identity({3, 3}, {1, 0, 0, 0, 1, 0, 0, 0, 1});
    Tensor bias({3}, {0, 0, 0});
    Tensor out;
    matmul(a, identity, bias, out);
    EXPECT_FLOAT_EQ(out.at(0, 0), 2.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1), -1.0f);
    EXPECT_FLOAT_EQ(out.at(0, 2), 5.0f);
}

TEST(MatmulBiasTransB, ReusesOutputBuffer)
{
    Tensor a({4, 8});
    Tensor b({3, 8});
    Tensor bias({3});
    Tensor out;
    matmul(a, b, bias, out);
    const float* ptr = out.data();
    matmul(a, b, bias, out);
    EXPECT_EQ(out.data(), ptr);   // no reallocation on same shape
}

TEST(MatmulBiasTransB, StridedFormFillsAColumnSlice)
{
    // A's rows sit 5 floats apart (k = 3), C's 4 apart from column 1
    // (n = 2): the product lands in columns 1..2 and the padding keeps
    // its sentinel.
    const Tensor b({2, 3}, {1, 0, 2, -1, 1, 0});
    const Tensor bias({2}, {0.5f, -0.5f});
    const Tensor a_dense({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor ref;
    matmul(a_dense, b, bias, ref);
    const float a[] = {1, 2, 3, -9, -9, 4, 5, 6, -9, -9};
    float c[8];
    std::fill(c, c + 8, 7.0f);
    matmulBiasTransB(a, 5, 2, b, bias, c + 1, 4);
    for (size_t i = 0; i < 2; i++) {
        EXPECT_EQ(c[i * 4], 7.0f);
        EXPECT_EQ(c[i * 4 + 1], ref.at(i, 0));
        EXPECT_EQ(c[i * 4 + 2], ref.at(i, 1));
        EXPECT_EQ(c[i * 4 + 3], 7.0f);
    }
    EXPECT_FLOAT_EQ(ref.at(0, 0), 7.5f);    // 1 + 6 + 0.5
    EXPECT_FLOAT_EQ(ref.at(1, 1), 0.5f);    // -4 + 5 - 0.5
}

TEST(Activations, ReluClampsNegatives)
{
    Tensor t({4}, {-1.0f, 0.0f, 2.0f, -3.5f});
    reluInPlace(t.data(), t.numel());
    EXPECT_FLOAT_EQ(t.at(0), 0.0f);
    EXPECT_FLOAT_EQ(t.at(1), 0.0f);
    EXPECT_FLOAT_EQ(t.at(2), 2.0f);
    EXPECT_FLOAT_EQ(t.at(3), 0.0f);
}

TEST(Activations, SigmoidRangeAndCenter)
{
    Tensor t({3}, {0.0f, 100.0f, -100.0f});
    sigmoidInPlace(t.data(), t.numel());
    EXPECT_FLOAT_EQ(t.at(0), 0.5f);
    EXPECT_NEAR(t.at(1), 1.0f, 1e-6);
    EXPECT_NEAR(t.at(2), 0.0f, 1e-6);
}

TEST(ConcatCols, JoinsWidths)
{
    Tensor a({2, 2}, {1, 2, 3, 4});
    Tensor b({2, 1}, {9, 8});
    const Tensor* parts[] = {&a, &b};
    Tensor out;
    concatCols(parts, out);
    EXPECT_EQ(out.dim(0), 2u);
    EXPECT_EQ(out.dim(1), 3u);
    EXPECT_FLOAT_EQ(out.at(0, 2), 9.0f);
    EXPECT_FLOAT_EQ(out.at(1, 0), 3.0f);
}

TEST(ConcatCols, SingleInputCopies)
{
    Tensor a({1, 3}, {1, 2, 3});
    const Tensor* parts[] = {&a};
    Tensor out;
    concatCols(parts, out);
    EXPECT_EQ(out.dim(1), 3u);
    EXPECT_FLOAT_EQ(out.at(0, 1), 2.0f);
}

/** Matmul agrees with a naive reference over random shapes. */
class MatmulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(MatmulShapes, AgreesWithReference)
{
    const auto [m, k, n] = GetParam();
    Tensor a({static_cast<size_t>(m), static_cast<size_t>(k)});
    Tensor b({static_cast<size_t>(n), static_cast<size_t>(k)});
    Tensor bias({static_cast<size_t>(n)});
    for (size_t i = 0; i < a.numel(); i++)
        a.at(i) = static_cast<float>(static_cast<int>(i % 7) - 3);
    for (size_t i = 0; i < b.numel(); i++)
        b.at(i) = static_cast<float>(static_cast<int>(i % 5) - 2);
    for (size_t i = 0; i < bias.numel(); i++)
        bias.at(i) = static_cast<float>(i);

    Tensor out;
    matmul(a, b, bias, out);

    for (int i = 0; i < m; i++) {
        for (int j = 0; j < n; j++) {
            float ref = bias.at(j);
            for (int p = 0; p < k; p++)
                ref += a.at(i, p) * b.at(j, p);
            EXPECT_NEAR(out.at(i, j), ref, 1e-3) << i << "," << j;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 8, 4),
                      std::make_tuple(3, 5, 7), std::make_tuple(16, 32, 8),
                      std::make_tuple(2, 64, 2),
                      std::make_tuple(33, 17, 9)));

} // namespace
} // namespace deeprecsys
