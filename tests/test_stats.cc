/**
 * @file
 * Unit tests for summary statistics.
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "base/random.hh"
#include "base/stats.hh"

namespace deeprecsys {
namespace {

TEST(SampleStats, EmptyIsZero)
{
    SampleStats s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(95), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 0.0);
}

TEST(SampleStats, SingleSample)
{
    SampleStats s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 42.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 42.0);
}

TEST(SampleStats, MeanAndSum)
{
    SampleStats s;
    for (int i = 1; i <= 10; i++)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.sum(), 55.0);
    EXPECT_DOUBLE_EQ(s.mean(), 5.5);
    EXPECT_EQ(s.count(), 10u);
}

TEST(SampleStats, PercentileInterpolation)
{
    SampleStats s;
    s.add(10.0);
    s.add(20.0);
    // Ranks 0 and 1; p50 interpolates halfway.
    EXPECT_DOUBLE_EQ(s.percentile(50), 15.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 20.0);
}

TEST(SampleStats, PercentileOrderInsensitive)
{
    SampleStats a;
    SampleStats b;
    const std::vector<double> vals{5, 1, 9, 3, 7, 2, 8, 4, 6, 0};
    for (double v : vals)
        a.add(v);
    for (auto it = vals.rbegin(); it != vals.rend(); ++it)
        b.add(*it);
    for (double p : {10.0, 25.0, 50.0, 75.0, 95.0, 99.0})
        EXPECT_DOUBLE_EQ(a.percentile(p), b.percentile(p)) << p;
}

TEST(SampleStats, PercentileMonotoneInP)
{
    SampleStats s;
    for (int i = 0; i < 1000; i++)
        s.add((i * 37) % 1000);
    double prev = s.percentile(0);
    for (int p = 1; p <= 100; p++) {
        const double cur = s.percentile(p);
        EXPECT_GE(cur, prev) << "p=" << p;
        prev = cur;
    }
}

TEST(SampleStats, ClearResets)
{
    SampleStats s;
    s.add(1.0);
    s.add(2.0);
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(SampleStats, AddAllMatchesLoop)
{
    SampleStats a;
    SampleStats b;
    std::vector<double> vals;
    for (int i = 0; i < 100; i++)
        vals.push_back(i * 0.5);
    a.addAll(vals);
    for (double v : vals)
        b.add(v);
    EXPECT_DOUBLE_EQ(a.percentile(95), b.percentile(95));
    EXPECT_DOUBLE_EQ(a.mean(), b.mean());
}

TEST(SampleStats, TailShortcuts)
{
    SampleStats s;
    for (int i = 1; i <= 100; i++)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.p50(), s.percentile(50));
    EXPECT_DOUBLE_EQ(s.p75(), s.percentile(75));
    EXPECT_DOUBLE_EQ(s.p95(), s.percentile(95));
    EXPECT_DOUBLE_EQ(s.p99(), s.percentile(99));
    EXPECT_GT(s.p99(), s.p95());
}

TEST(SampleStats, InterleavedAddAndQuery)
{
    // A read sees every add before it.
    SampleStats s;
    s.add(10.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 10.0);
    s.add(20.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 20.0);
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 5.0);
}

/** The percentile of a full sort: interpolation between the order
 *  statistics at floor(rank) and the one above it. */
double
sortedPercentile(std::vector<double> values, double p)
{
    std::sort(values.begin(), values.end());
    if (values.size() == 1)
        return values.front();
    const double rank = (p / 100.0) * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

/** 1000 values in shuffled order, each of 100 distinct values ten
 *  times over. */
std::vector<double>
tiedValues()
{
    Rng rng(1000);
    std::vector<double> values;
    for (int i = 0; i < 1000; i++)
        values.push_back(0.37 * static_cast<double>(rng.uniformInt(0, 99)));
    return values;
}

TEST(SampleStats, PercentileBitEqualToFullSort)
{
    const std::vector<std::vector<double>> books = {
        {4.5}, {3.0, -1.25}, {2.0, 9.5, 2.0}, tiedValues()};
    for (const std::vector<double>& values : books) {
        SampleStats s;
        s.addAll(values);
        for (double p : {0.0, 0.1, 50.0, 95.0, 99.0, 99.9, 100.0}) {
            EXPECT_EQ(std::bit_cast<uint64_t>(s.percentile(p)),
                      std::bit_cast<uint64_t>(sortedPercentile(values, p)))
                << "n " << values.size() << " p " << p;
        }
    }
}

TEST(SampleStatsParallel, OneConstBookReadFromEightThreads)
{
    // Reads copy the book, so eight threads may read one const book
    // at once (the TSan job runs this), and each gets a full sort's
    // bits.
    const std::vector<double> values = tiedValues();
    SampleStats book;
    book.addAll(values);
    const SampleStats& shared = book;
    const double ps[] = {50.0, 95.0, 99.0, 99.9};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 8; t++) {
        readers.emplace_back([&] {
            for (double p : ps) {
                if (std::bit_cast<uint64_t>(shared.percentile(p)) !=
                    std::bit_cast<uint64_t>(sortedPercentile(values, p)))
                    mismatches++;
            }
        });
    }
    for (std::thread& reader : readers)
        reader.join();
    EXPECT_EQ(mismatches.load(), 0);
}

/** Percentile agrees with a naive nearest-rank reference on sweeps. */
class PercentileSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(PercentileSweep, BoundedByMinMax)
{
    const int n = GetParam();
    SampleStats s;
    for (int i = 0; i < n; i++)
        s.add((i * 7919) % 1000);
    const auto [lo, hi] = std::minmax_element(s.raw().begin(), s.raw().end());
    for (double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
        const double v = s.percentile(p);
        EXPECT_GE(v, *lo);
        EXPECT_LE(v, *hi);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PercentileSweep,
                         ::testing::Values(1, 2, 3, 10, 100, 1000, 4096));

} // namespace
} // namespace deeprecsys
