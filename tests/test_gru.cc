/**
 * @file
 * Unit tests for GRU and attention-gated GRU (AUGRU) layers.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "nn/gru.hh"

namespace deeprecsys {
namespace {

TEST(GruCell, ZeroAttentionFreezesState)
{
    Rng rng(1);
    GruCell cell(4, 6, rng);
    std::vector<float> x(4, 1.0f);
    std::vector<float> h(6, 0.5f);
    const std::vector<float> before = h;
    std::vector<float> gates(6 * 6);
    cell.step(x.data(), h.data(), gates.data(), /*att_scale=*/0.0f);
    for (size_t i = 0; i < h.size(); i++)
        EXPECT_FLOAT_EQ(h[i], before[i]);
}

TEST(GruCell, UnitAttentionMovesState)
{
    Rng rng(2);
    GruCell cell(4, 6, rng);
    std::vector<float> x(4, 1.0f);
    std::vector<float> h(6, 0.0f);
    std::vector<float> gates(6 * 6);
    cell.step(x.data(), h.data(), gates.data(), 1.0f);
    bool moved = false;
    for (float v : h)
        moved |= (v != 0.0f);
    EXPECT_TRUE(moved);
}

TEST(GruCell, StateStaysBounded)
{
    // GRU state is a convex blend of tanh candidates: |h| <= 1.
    Rng rng(3);
    GruCell cell(4, 4, rng);
    std::vector<float> h(4, 0.0f);
    std::vector<float> x(4);
    std::vector<float> gates(6 * 4);
    for (int t = 0; t < 100; t++) {
        for (auto& v : x)
            v = static_cast<float>(rng.normal(0.0, 2.0));
        cell.step(x.data(), h.data(), gates.data());
        for (float v : h) {
            EXPECT_LE(std::abs(v), 1.0f + 1e-5);
            EXPECT_TRUE(std::isfinite(v));
        }
    }
}

TEST(GruCell, FlopsPerStep)
{
    Rng rng(4);
    GruCell cell(8, 16, rng);
    // 2 * (|Wx| + |Wh|) = 2 * (3*16*8 + 3*16*16).
    EXPECT_EQ(cell.flopsPerStep(), 2ull * (3 * 16 * 8 + 3 * 16 * 16));
}

TEST(GruLayer, ForwardShape)
{
    Rng rng(5);
    GruLayer gru(8, 12, rng);
    Tensor seq({3, 6, 8});
    Tensor h;
    Tensor gates;
    gru.forward(seq, nullptr, h, gates);
    EXPECT_EQ(h.dim(0), 3u);
    EXPECT_EQ(h.dim(1), 12u);
}

TEST(GruLayer, AllStatesShape)
{
    Rng rng(6);
    GruLayer gru(8, 12, rng);
    Tensor seq({2, 5, 8});
    Tensor states;
    Tensor gates;
    gru.forwardAllStates(seq, states, gates);
    EXPECT_EQ(states.rank(), 3u);
    EXPECT_EQ(states.dim(0), 2u);
    EXPECT_EQ(states.dim(1), 5u);
    EXPECT_EQ(states.dim(2), 12u);
}

TEST(GruLayer, LastStateMatchesForward)
{
    Rng rng(7);
    GruLayer gru(4, 6, rng);
    Tensor seq({2, 3, 4});
    for (size_t i = 0; i < seq.numel(); i++)
        seq.at(i) = static_cast<float>((i % 5) * 0.1);
    Tensor h;
    Tensor all;
    Tensor gates;
    gru.forward(seq, nullptr, h, gates);
    gru.forwardAllStates(seq, all, gates);
    for (size_t b = 0; b < 2; b++) {
        for (size_t d = 0; d < 6; d++) {
            const float last = all.data()[(b * 3 + 2) * 6 + d];
            EXPECT_NEAR(h.at(b, d), last, 1e-6);
        }
    }
}

TEST(GruLayer, AttentionScoresGateUpdates)
{
    Rng rng(8);
    GruLayer gru(4, 6, rng);
    Tensor seq({1, 4, 4});
    for (size_t i = 0; i < seq.numel(); i++)
        seq.at(i) = 0.5f;
    Tensor zero_scores = Tensor::mat(1, 4);   // all-zero attention
    Tensor frozen;
    Tensor gates;
    gru.forward(seq, &zero_scores, frozen, gates);
    for (size_t d = 0; d < 6; d++)
        EXPECT_FLOAT_EQ(frozen.at(0, d), 0.0f);

    Tensor unit_scores = Tensor::mat(1, 4);
    unit_scores.fill(1.0f);
    Tensor active;
    gru.forward(seq, &unit_scores, active, gates);
    bool moved = false;
    for (size_t d = 0; d < 6; d++)
        moved |= (active.at(0, d) != 0.0f);
    EXPECT_TRUE(moved);
}

TEST(GruLayer, ChargesRecurrentTime)
{
    Rng rng(9);
    GruLayer gru(8, 8, rng);
    Tensor seq({4, 16, 8});
    Tensor h;
    Tensor gates;
    OperatorStats stats;
    gru.forward(seq, nullptr, h, gates, &stats);
    EXPECT_GT(stats.seconds(OpClass::Recurrent), 0.0);
    EXPECT_DOUBLE_EQ(stats.seconds(OpClass::Fc), 0.0);
}

TEST(GruLayer, FlopsScaleWithSeqLen)
{
    Rng rng(10);
    GruLayer gru(8, 8, rng);
    EXPECT_EQ(gru.flopsPerSample(10), 10 * gru.flopsPerSample(1));
}

} // namespace
} // namespace deeprecsys
