/**
 * @file
 * Unit tests for the deterministic RNG and its distributions.
 */

#include <cmath>
#include <utility>
#include <gtest/gtest.h>

#include "base/random.hh"

namespace deeprecsys {
namespace {

TEST(Rng, SameSeedSameStream)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; i++)
        same += (a() == b());
    EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(7);
    const uint64_t first = a();
    a();
    a.reseed(7);
    EXPECT_EQ(a(), first);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(5);
    for (int i = 0; i < 10000; i++) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng r(6);
    for (int i = 0; i < 1000; i++) {
        const double u = r.uniform(-3.0, 4.5);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 4.5);
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng r(8);
    double acc = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; i++)
        acc += r.uniform();
    EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformIntBoundsInclusive)
{
    Rng r(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 5000; i++) {
        const int64_t v = r.uniformInt(2, 9);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 9);
        saw_lo |= (v == 2);
        saw_hi |= (v == 9);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments)
{
    Rng r(10);
    const int n = 200000;
    double sum = 0.0;
    double sq = 0.0;
    for (int i = 0; i < n; i++) {
        const double v = r.normal();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalShiftScale)
{
    Rng r(11);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; i++)
        sum += r.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, LognormalMedian)
{
    Rng r(12);
    const int n = 100001;
    std::vector<double> vals(n);
    for (int i = 0; i < n; i++)
        vals[i] = r.lognormal(std::log(60.0), 0.8);
    std::nth_element(vals.begin(), vals.begin() + n / 2, vals.end());
    EXPECT_NEAR(vals[n / 2], 60.0, 2.0);
}

TEST(Rng, ExponentialMean)
{
    Rng r(13);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; i++)
        sum += r.exponential(4.0);
    EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ExponentialNonNegative)
{
    Rng r(14);
    for (int i = 0; i < 10000; i++)
        EXPECT_GE(r.exponential(1.0), 0.0);
}

TEST(Rng, ParetoAtLeastScale)
{
    Rng r(15);
    for (int i = 0; i < 10000; i++)
        EXPECT_GE(r.pareto(150.0, 1.3), 150.0);
}

TEST(Rng, ParetoTailHeavierThanExponential)
{
    // P(X > 10*x_m) = 10^-1.3 ~ 5%; an exponential with the same
    // median would place essentially no mass there.
    Rng r(16);
    int above = 0;
    const int n = 100000;
    for (int i = 0; i < n; i++)
        above += (r.pareto(150.0, 1.3) > 1500.0);
    EXPECT_NEAR(static_cast<double>(above) / n, std::pow(10.0, -1.3),
                0.01);
}

TEST(Rng, ForkStreamsIndependent)
{
    Rng parent(17);
    Rng child_a = parent.fork();
    Rng child_b = parent.fork();
    int same = 0;
    for (int i = 0; i < 64; i++)
        same += (child_a() == child_b());
    EXPECT_LT(same, 2);
}

TEST(Rng, WorksWithStdDistributions)
{
    // UniformRandomBitGenerator conformance.
    static_assert(std::uniform_random_bit_generator<Rng>);
    EXPECT_EQ(Rng::min(), 0u);
    EXPECT_EQ(Rng::max(), ~0ULL);
}

TEST(Mix64, PinnedOnFixedInputs)
{
    // SplitMix64's outputs: mix64(0) and mix64(1) are the first draws
    // of a SplitMix64 generator seeded at 0 and at 1.
    EXPECT_EQ(mix64(0), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(mix64(1), 0x910a2dec89025cc1ULL);
    EXPECT_EQ(mix64(7), 0x63cbe1e459320dd7ULL);
    EXPECT_EQ(mix64(0xdeadbeefULL), 0x4adfb90f68c9eb9bULL);
    EXPECT_EQ(mix64(~0ULL), 0xe4d971771b652c20ULL);
}

TEST(Rng, FirstDrawsPinned)
{
    // The state is SplitMix64's first four outputs from the seed.
    EXPECT_EQ(Rng(0)(), 0x99ec5f36cb75f2b4ULL);
    EXPECT_EQ(Rng(7)(), 0xb358faf74ef9765aULL);
}

} // namespace
} // namespace deeprecsys
