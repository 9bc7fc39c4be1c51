/**
 * @file
 * Unit tests for fully-connected layers and MLP stacks.
 */

#include <gtest/gtest.h>

#include "nn/mlp.hh"

namespace deeprecsys {
namespace {

TEST(FcLayer, ForwardShape)
{
    Rng rng(1);
    FcLayer layer(8, 4, Activation::Relu, rng);
    Tensor x = Tensor::mat(3, 8);
    Tensor out;
    layer.forward(x, out);
    EXPECT_EQ(out.dim(0), 3u);
    EXPECT_EQ(out.dim(1), 4u);
}

TEST(FcLayer, FlopsAndParamBytes)
{
    Rng rng(1);
    FcLayer layer(10, 20, Activation::Relu, rng);
    EXPECT_EQ(layer.flopsPerSample(), 2ull * 10 * 20);
    EXPECT_EQ(layer.paramBytes(), (10 * 20 + 20) * sizeof(float));
}

TEST(FcLayer, ReluOutputNonNegative)
{
    Rng rng(2);
    FcLayer layer(16, 16, Activation::Relu, rng);
    Tensor x = Tensor::mat(4, 16);
    for (size_t i = 0; i < x.numel(); i++)
        x.at(i) = static_cast<float>(rng.normal());
    Tensor out;
    layer.forward(x, out);
    for (size_t i = 0; i < out.numel(); i++)
        EXPECT_GE(out.at(i), 0.0f);
}

TEST(FcLayer, SigmoidOutputInUnitInterval)
{
    Rng rng(3);
    FcLayer layer(16, 1, Activation::Sigmoid, rng);
    Tensor x = Tensor::mat(8, 16);
    for (size_t i = 0; i < x.numel(); i++)
        x.at(i) = static_cast<float>(rng.normal(0.0, 3.0));
    Tensor out;
    layer.forward(x, out);
    for (size_t i = 0; i < out.numel(); i++) {
        EXPECT_GT(out.at(i), 0.0f);
        EXPECT_LT(out.at(i), 1.0f);
    }
}

TEST(Mlp, EmptyByDefault)
{
    Mlp mlp;
    EXPECT_TRUE(mlp.empty());
}

TEST(Mlp, LayerCountFollowsDims)
{
    Rng rng(4);
    Mlp mlp({256, 128, 32}, rng);
    EXPECT_EQ(mlp.numLayers(), 2u);
    EXPECT_EQ(mlp.outDim(), 32u);
}

TEST(Mlp, ForwardShape)
{
    Rng rng(5);
    Mlp mlp({12, 8, 4}, rng);
    Tensor x = Tensor::mat(5, 12);
    Tensor ping;
    Tensor pong;
    const Tensor& out = mlp.forward(x, ping, pong);
    EXPECT_EQ(out.dim(0), 5u);
    EXPECT_EQ(out.dim(1), 4u);
}

TEST(Mlp, DeterministicGivenSeed)
{
    Rng rng_a(6);
    Rng rng_b(6);
    Mlp a({8, 8, 2}, rng_a);
    Mlp b({8, 8, 2}, rng_b);
    Tensor x = Tensor::mat(2, 8);
    x.fill(0.3f);
    Tensor ping_a;
    Tensor pong_a;
    const Tensor& out_a = a.forward(x, ping_a, pong_a);
    Tensor ping_b;
    Tensor pong_b;
    const Tensor& out_b = b.forward(x, ping_b, pong_b);
    for (size_t i = 0; i < out_a.numel(); i++)
        EXPECT_FLOAT_EQ(out_a.at(i), out_b.at(i));
}

TEST(Mlp, DifferentSeedsDifferentWeights)
{
    Rng rng_a(7);
    Rng rng_b(8);
    Mlp a({8, 4}, rng_a);
    Mlp b({8, 4}, rng_b);
    Tensor x = Tensor::mat(1, 8);
    x.fill(1.0f);
    Tensor ping_a;
    Tensor pong_a;
    const Tensor& out_a = a.forward(x, ping_a, pong_a);
    Tensor ping_b;
    Tensor pong_b;
    const Tensor& out_b = b.forward(x, ping_b, pong_b);
    bool any_diff = false;
    for (size_t i = 0; i < out_a.numel(); i++)
        any_diff |= (out_a.at(i) != out_b.at(i));
    EXPECT_TRUE(any_diff);
}

TEST(Mlp, FlopsSumAcrossLayers)
{
    Rng rng(9);
    Mlp mlp({100, 50, 10}, rng);
    EXPECT_EQ(mlp.flopsPerSample(), 2ull * (100 * 50 + 50 * 10));
}

TEST(Mlp, ParamBytesSumAcrossLayers)
{
    Rng rng(10);
    Mlp mlp({100, 50, 10}, rng);
    const uint64_t expected =
        (100 * 50 + 50) * sizeof(float) + (50 * 10 + 10) * sizeof(float);
    EXPECT_EQ(mlp.paramBytes(), expected);
}

TEST(Mlp, ChargesTimeToFcClass)
{
    Rng rng(11);
    Mlp mlp({64, 64, 64}, rng);
    Tensor x = Tensor::mat(16, 64);
    Tensor ping;
    Tensor pong;
    OperatorStats stats;
    mlp.forward(x, ping, pong, &stats);
    EXPECT_GT(stats.seconds(OpClass::Fc), 0.0);
    EXPECT_DOUBLE_EQ(stats.seconds(OpClass::Embedding), 0.0);
}

TEST(Mlp, SigmoidFinalActivationBounded)
{
    Rng rng(12);
    Mlp mlp({16, 8, 1}, rng, Activation::Sigmoid);
    Tensor x = Tensor::mat(32, 16);
    for (size_t i = 0; i < x.numel(); i++)
        x.at(i) = static_cast<float>(rng.normal(0.0, 2.0));
    Tensor ping;
    Tensor pong;
    const Tensor& out = mlp.forward(x, ping, pong);
    for (size_t i = 0; i < out.numel(); i++) {
        EXPECT_GT(out.at(i), 0.0f);
        EXPECT_LT(out.at(i), 1.0f);
    }
}

/** Forward pass works across a sweep of batch sizes. */
class MlpBatchSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(MlpBatchSweep, ShapeAndFiniteness)
{
    Rng rng(13);
    Mlp mlp({32, 16, 4}, rng);
    const size_t batch = static_cast<size_t>(GetParam());
    Tensor x = Tensor::mat(batch, 32);
    for (size_t i = 0; i < x.numel(); i++)
        x.at(i) = static_cast<float>(rng.uniform(-1.0, 1.0));
    Tensor ping;
    Tensor pong;
    const Tensor& out = mlp.forward(x, ping, pong);
    EXPECT_EQ(out.dim(0), batch);
    for (size_t i = 0; i < out.numel(); i++)
        EXPECT_TRUE(std::isfinite(out.at(i)));
}

INSTANTIATE_TEST_SUITE_P(Batches, MlpBatchSweep,
                         ::testing::Values(1, 2, 7, 16, 64, 256));

} // namespace
} // namespace deeprecsys
