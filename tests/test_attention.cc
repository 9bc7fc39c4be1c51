/**
 * @file
 * Unit tests for the DIN-style local activation (attention) unit.
 */

#include <gtest/gtest.h>

#include "nn/attention.hh"

namespace deeprecsys {
namespace {

TEST(LocalActivationUnit, ScoreCountMatchesSequence)
{
    Rng rng(1);
    LocalActivationUnit att(8, 16, rng);
    Tensor behaviors = Tensor::mat(5, 8);
    std::vector<float> cand(8, 0.1f);
    AttentionScratch scratch;
    const Tensor& scores =
        att.scores(behaviors.data(), 5, cand.data(), scratch);
    EXPECT_EQ(scores.numel(), 5u);
}

TEST(LocalActivationUnit, ScoresAreSigmoidBounded)
{
    Rng rng(2);
    LocalActivationUnit att(8, 16, rng);
    Tensor behaviors = Tensor::mat(10, 8);
    for (size_t i = 0; i < behaviors.numel(); i++)
        behaviors.at(i) = static_cast<float>(rng.normal());
    std::vector<float> cand(8);
    for (auto& v : cand)
        v = static_cast<float>(rng.normal());
    AttentionScratch scratch;
    const Tensor& scores =
        att.scores(behaviors.data(), 10, cand.data(), scratch);
    for (size_t i = 0; i < scores.numel(); i++) {
        EXPECT_GT(scores.at(i), 0.0f);
        EXPECT_LT(scores.at(i), 1.0f);
    }
}

TEST(LocalActivationUnit, PoolShape)
{
    Rng rng(3);
    LocalActivationUnit att(6, 12, rng);
    Tensor behaviors({4, 7, 6});
    Tensor candidates = Tensor::mat(4, 6);
    Tensor out;
    AttentionScratch scratch;
    att.pool(behaviors, candidates, out, scratch);
    EXPECT_EQ(out.dim(0), 4u);
    EXPECT_EQ(out.dim(1), 6u);
}

TEST(LocalActivationUnit, ZeroBehaviorsPoolToZero)
{
    Rng rng(4);
    LocalActivationUnit att(4, 8, rng);
    Tensor behaviors({2, 3, 4});    // all zeros
    Tensor candidates = Tensor::mat(2, 4);
    candidates.fill(1.0f);
    Tensor out;
    AttentionScratch scratch;
    att.pool(behaviors, candidates, out, scratch);
    for (size_t i = 0; i < out.numel(); i++)
        EXPECT_FLOAT_EQ(out.at(i), 0.0f);
}

TEST(LocalActivationUnit, PoolIsWeightedSumOfBehaviors)
{
    Rng rng(5);
    LocalActivationUnit att(4, 8, rng);
    // Single behavior: pool = score * behavior.
    Tensor behaviors({1, 1, 4});
    for (size_t i = 0; i < 4; i++)
        behaviors.at(i) = static_cast<float>(i + 1);
    Tensor candidates = Tensor::mat(1, 4);
    candidates.fill(0.5f);

    AttentionScratch scratch;
    const float score =
        att.scores(behaviors.data(), 1, candidates.row(0), scratch).at(0);
    Tensor out;
    att.pool(behaviors, candidates, out, scratch);
    for (size_t d = 0; d < 4; d++)
        EXPECT_NEAR(out.at(0, d), score * behaviors.at(d), 1e-5);
}

TEST(LocalActivationUnit, ChargesAttentionTime)
{
    Rng rng(6);
    LocalActivationUnit att(8, 16, rng);
    Tensor behaviors({2, 16, 8});
    Tensor candidates = Tensor::mat(2, 8);
    Tensor out;
    AttentionScratch scratch;
    OperatorStats stats;
    att.pool(behaviors, candidates, out, scratch, &stats);
    EXPECT_GT(stats.seconds(OpClass::Attention), 0.0);
    EXPECT_DOUBLE_EQ(stats.seconds(OpClass::Fc), 0.0);
}

TEST(LocalActivationUnit, FlopsPerPairPositive)
{
    Rng rng(7);
    LocalActivationUnit att(64, 36, rng);
    // Scorer is (3*64) -> 36 -> 1.
    EXPECT_EQ(att.flopsPerPair(), 2ull * (192 * 36 + 36 * 1));
}

TEST(LocalActivationUnit, DeterministicGivenSeed)
{
    Rng rng_a(8);
    Rng rng_b(8);
    LocalActivationUnit a(4, 8, rng_a);
    LocalActivationUnit b(4, 8, rng_b);
    Tensor behaviors = Tensor::mat(3, 4);
    behaviors.fill(0.25f);
    std::vector<float> cand(4, -0.5f);
    AttentionScratch scratch_a;
    AttentionScratch scratch_b;
    const Tensor& sa = a.scores(behaviors.data(), 3, cand.data(), scratch_a);
    const Tensor& sb = b.scores(behaviors.data(), 3, cand.data(), scratch_b);
    for (size_t i = 0; i < sa.numel(); i++)
        EXPECT_FLOAT_EQ(sa.at(i), sb.at(i));
}

} // namespace
} // namespace deeprecsys
