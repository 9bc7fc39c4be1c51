/**
 * @file
 * Tests for the query load generator: arrival processes, size
 * distributions (including the production heavy tail of Figure 5),
 * and trace generation.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <gtest/gtest.h>
#include <numeric>

#include "diurnal_reference.hh"
#include "loadgen/query_stream.hh"

namespace deeprecsys {
namespace {

TEST(ArrivalProcess, PoissonMeanGap)
{
    // Unit-rate gaps re-timed at 100 q/s.
    ArrivalProcess p(1);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; i++)
        sum += p.nextGap() / 100.0;
    EXPECT_NEAR(sum / n, 0.01, 0.001);
}

TEST(ArrivalProcess, PoissonCoefficientOfVariation)
{
    // Exponential gaps have CV = 1.
    ArrivalProcess p(2);
    std::vector<double> gaps;
    for (int i = 0; i < 20000; i++)
        gaps.push_back(p.nextGap() / 10.0);
    const double mean =
        std::accumulate(gaps.begin(), gaps.end(), 0.0) / gaps.size();
    double var = 0.0;
    for (double g : gaps)
        var += (g - mean) * (g - mean);
    var /= gaps.size();
    EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05);
}

TEST(QuerySizeDistribution, SamplesWithinRange)
{
    for (auto kind : {SizeDistKind::Production, SizeDistKind::Lognormal,
                      SizeDistKind::Normal}) {
        auto dist = QuerySizeDistribution::byKind(kind, 3);
        for (int i = 0; i < 20000; i++) {
            const uint32_t s = dist.sample();
            EXPECT_GE(s, 1u);
            EXPECT_LE(s, QuerySizeDistribution::maxSize);
        }
    }
}

TEST(QuerySizeDistribution, DeterministicGivenSeed)
{
    auto a = QuerySizeDistribution::production(5);
    auto b = QuerySizeDistribution::production(5);
    for (int i = 0; i < 1000; i++)
        EXPECT_EQ(a.sample(), b.sample());
}

TEST(QuerySizeDistribution, ProductionHeavierTailThanLognormal)
{
    // Figure 5: the production distribution has more mass at large
    // query sizes than the lognormal with the same body.
    auto prod = QuerySizeDistribution::production(6);
    auto logn = QuerySizeDistribution::lognormal(6);
    const int n = 100000;
    int prod_large = 0;
    int logn_large = 0;
    for (int i = 0; i < n; i++) {
        prod_large += (prod.sample() >= 400);
        logn_large += (logn.sample() >= 400);
    }
    EXPECT_GT(prod_large, 2 * logn_large);
}

TEST(QuerySizeDistribution, ProductionTopQuartileCarriesHalfTheWork)
{
    // Figure 6: ~25% of large queries contribute ~50% of total items.
    auto prod = QuerySizeDistribution::production(7);
    const int n = 200000;
    std::vector<uint32_t> sizes(n);
    for (int i = 0; i < n; i++)
        sizes[i] = prod.sample();
    std::sort(sizes.begin(), sizes.end());
    const double total =
        std::accumulate(sizes.begin(), sizes.end(), 0.0);
    const double top_quarter = std::accumulate(
        sizes.begin() + (3 * n) / 4, sizes.end(), 0.0);
    EXPECT_GT(top_quarter / total, 0.40);
    EXPECT_LT(top_quarter / total, 0.70);
}

TEST(QuerySizeDistribution, ProductionP75IsModerate)
{
    auto prod = QuerySizeDistribution::production(8);
    const int n = 100001;
    std::vector<uint32_t> sizes(n);
    for (int i = 0; i < n; i++)
        sizes[i] = prod.sample();
    std::nth_element(sizes.begin(), sizes.begin() + (3 * n) / 4,
                     sizes.end());
    const uint32_t p75 = sizes[(3 * n) / 4];
    // Body median is 60; p75 sits between the body and the tail.
    EXPECT_GT(p75, 80u);
    EXPECT_LT(p75, 300u);
}

TEST(QuerySizeDistribution, MaxSizeReachable)
{
    auto prod = QuerySizeDistribution::production(9);
    uint32_t max_seen = 0;
    for (int i = 0; i < 100000; i++)
        max_seen = std::max(max_seen, prod.sample());
    EXPECT_EQ(max_seen, QuerySizeDistribution::maxSize);
}

TEST(QuerySizeDistribution, NormalClampsAtOne)
{
    auto dist = QuerySizeDistribution::normal(10, 5.0, 50.0);
    uint32_t min_seen = QuerySizeDistribution::maxSize;
    for (int i = 0; i < 10000; i++)
        min_seen = std::min(min_seen, dist.sample());
    EXPECT_EQ(min_seen, 1u);
}

TEST(QueryStream, ArrivalTimesMonotone)
{
    LoadSpec spec;
    spec.qps = 500.0;
    QueryStream stream(spec);
    const QueryTrace trace = stream.generate(1000);
    ASSERT_EQ(trace.size(), 1000u);
    for (size_t i = 1; i < trace.size(); i++)
        EXPECT_GE(trace[i].arrivalSeconds, trace[i - 1].arrivalSeconds);
}

TEST(QueryStream, IdsAreSequential)
{
    LoadSpec spec;
    QueryStream stream(spec);
    const QueryTrace trace = stream.generate(100);
    for (size_t i = 0; i < trace.size(); i++)
        EXPECT_EQ(trace[i].id, i);
}

TEST(QueryStream, OfferedRateMatchesSpec)
{
    LoadSpec spec;
    spec.qps = 250.0;
    QueryStream stream(spec);
    const QueryTrace trace = stream.generate(20000);
    const double span = trace.back().arrivalSeconds;
    EXPECT_NEAR(trace.size() / span, 250.0, 10.0);
}

TEST(QueryStream, SizeSequenceIndependentOfRate)
{
    // Rate sweeps must re-time the same query population.
    LoadSpec lo;
    lo.qps = 10.0;
    LoadSpec hi = lo;
    hi.qps = 10000.0;
    QueryStream a(lo);
    QueryStream b(hi);
    const QueryTrace ta = a.generate(200);
    const QueryTrace tb = b.generate(200);
    for (size_t i = 0; i < ta.size(); i++)
        EXPECT_EQ(ta[i].size, tb[i].size);
}

TEST(DiurnalProfile, MeanMultiplierIsOne)
{
    DiurnalProfile profile(2.0);
    double sum = 0.0;
    const int n = 2400;
    for (int i = 0; i < n; i++)
        sum += profile.multiplier(86400.0 * i / n);
    EXPECT_NEAR(sum / n, 1.0, 1e-6);
}

TEST(DiurnalProfile, PeakToTroughRatio)
{
    DiurnalProfile profile(2.0);
    double lo = 1e9;
    double hi = 0.0;
    for (int i = 0; i < 2400; i++) {
        const double m = profile.multiplier(86400.0 * i / 2400);
        lo = std::min(lo, m);
        hi = std::max(hi, m);
    }
    EXPECT_NEAR(hi / lo, 2.0, 0.01);
}

TEST(DiurnalProfile, FlatProfileIsConstant)
{
    DiurnalProfile profile(1.0);
    EXPECT_DOUBLE_EQ(profile.swingAmplitude(), 0.0);
    for (int i = 0; i < 24; i++)
        EXPECT_DOUBLE_EQ(profile.multiplier(3600.0 * i), 1.0);
}

TEST(DiurnalProfile, PeakAndTroughLandAtQuarterPeriods)
{
    // The multiplier starts at the mean, peaks at P/4, and bottoms
    // out at 3P/4 — exactly 1 +/- amplitude there.
    const DiurnalProfile profile(3.0, 1000.0);
    const double a = profile.swingAmplitude();
    EXPECT_DOUBLE_EQ(a, 0.5);
    EXPECT_DOUBLE_EQ(profile.multiplier(0.0), 1.0);
    EXPECT_NEAR(profile.multiplier(250.0), 1.0 + a, 1e-12);
    EXPECT_NEAR(profile.multiplier(750.0), 1.0 - a, 1e-12);
    // Every point stays within the peak/trough bounds.
    for (int i = 0; i < 500; i++) {
        const double m = profile.multiplier(1000.0 * i / 500.0);
        EXPECT_GE(m, 1.0 - a);
        EXPECT_LE(m, 1.0 + a);
    }
}

TEST(DiurnalProfile, AccessorsRoundTripTheConfig)
{
    const DiurnalProfile profile(2.5, 3600.0);
    EXPECT_NEAR(profile.peakToTrough(), 2.5, 1e-12);
    EXPECT_DOUBLE_EQ(profile.periodSeconds(), 3600.0);
}

TEST(DiurnalProfile, PeriodWrapAround)
{
    const DiurnalProfile profile(2.0, 500.0);
    for (int i = 0; i < 50; i++) {
        const double t = 500.0 * i / 50.0;
        EXPECT_NEAR(profile.multiplier(t), profile.multiplier(t + 500.0),
                    1e-9);
        EXPECT_NEAR(profile.multiplier(t),
                    profile.multiplier(t + 5 * 500.0), 1e-9);
    }
}

TEST(DiurnalProfile, CumulativeMatchesNumericIntegral)
{
    const DiurnalProfile profile(2.0, 400.0);
    double numeric = 0.0;
    const int steps = 200000;
    const double dt = 400.0 / steps;
    for (int i = 0; i < steps; i++) {
        const double mid = (i + 0.5) * dt;
        numeric += profile.multiplier(mid) * dt;
        if ((i + 1) % (steps / 4) == 0) {
            EXPECT_NEAR(profile.cumulativeSeconds((i + 1) * dt), numeric,
                        1e-6 * 400.0);
        }
    }
    // Over a whole period the mean multiplier is exactly 1.
    EXPECT_NEAR(profile.cumulativeSeconds(400.0), 400.0, 1e-9);
}

TEST(DiurnalProfile, CumulativeStrictlyIncreasing)
{
    const DiurnalProfile profile(4.0, 100.0);
    double prev = 0.0;
    for (int i = 1; i <= 400; i++) {
        const double c = profile.cumulativeSeconds(100.0 * i / 400.0);
        EXPECT_GT(c, prev);
        prev = c;
    }
}

TEST(TraceTemplate, FlatDiurnalIsBitIdenticalToMaterialize)
{
    LoadSpec spec;
    spec.qps = 500.0;
    TraceTemplate tmpl(spec);
    tmpl.ensure(4000);
    const QueryTrace flat = tmpl.materialize(500.0, 4000);
    const QueryTrace diurnal =
        tmpl.materializeDiurnal(500.0, DiurnalProfile(1.0), 4000);
    ASSERT_EQ(flat.size(), diurnal.size());
    for (size_t i = 0; i < flat.size(); i++) {
        EXPECT_EQ(flat[i].id, diurnal[i].id);
        EXPECT_EQ(flat[i].size, diurnal[i].size);
        EXPECT_DOUBLE_EQ(flat[i].arrivalSeconds,
                         diurnal[i].arrivalSeconds);
    }
}

TEST(TraceTemplate, DiurnalKeepsPopulationAndOrdering)
{
    LoadSpec spec;
    spec.qps = 1000.0;
    TraceTemplate tmpl(spec);
    tmpl.ensure(20000);
    const DiurnalProfile profile(2.0, 20.0);
    const QueryTrace flat = tmpl.materialize(1000.0, 20000);
    const QueryTrace diurnal =
        tmpl.materializeDiurnal(1000.0, profile, 20000);
    ASSERT_EQ(diurnal.size(), flat.size());
    for (size_t i = 0; i < diurnal.size(); i++) {
        // Same drawn sizes in the same order; only the stamps move.
        EXPECT_EQ(diurnal[i].size, flat[i].size);
        if (i > 0) {
            EXPECT_GE(diurnal[i].arrivalSeconds,
                      diurnal[i - 1].arrivalSeconds);
        }
    }
}

TEST(TraceTemplate, DiurnalDensityTracksTheProfile)
{
    // The first half-period contains the peak: its share of arrivals
    // must be cumulative(P/2) / cumulative(P) = 1/2 + a/pi.
    LoadSpec spec;
    spec.qps = 2000.0;
    TraceTemplate tmpl(spec);
    const size_t count = 40000;
    tmpl.ensure(count);
    const DiurnalProfile profile(2.0, 20.0);
    const QueryTrace trace =
        tmpl.materializeDiurnal(2000.0, profile, count);

    size_t first_half = 0;
    for (const Query& q : trace)
        first_half += q.arrivalSeconds < 10.0 ? 1 : 0;
    const double a = profile.swingAmplitude();
    const double expected = 0.5 + a / M_PI;
    EXPECT_NEAR(static_cast<double>(first_half) /
                    static_cast<double>(trace.size()),
                expected, 0.01);
}

TEST(TraceTemplate, DiurnalInvertsTheCumulativeIntegral)
{
    // Each arrival time t_i satisfies cumulative(t_i) = u_i, the
    // sum of the first i+1 unit gaps over mean_qps: the flat trace's
    // arrival i, which adds up the same gaps in the same order.
    LoadSpec spec;
    spec.qps = 100.0;
    TraceTemplate tmpl(spec);
    tmpl.ensure(1000);
    const DiurnalProfile profile(3.0, 10.0);
    const QueryTrace trace =
        tmpl.materializeDiurnal(100.0, profile, 1000);
    const QueryTrace flat = tmpl.materialize(100.0, 1000);
    for (size_t i = 0; i < trace.size(); i++) {
        const double expected_u = flat[i].arrivalSeconds;
        EXPECT_NEAR(profile.cumulativeSeconds(trace[i].arrivalSeconds),
                    expected_u, 1e-9 * (1.0 + expected_u));
    }
}

TEST(TraceTemplate, DiurnalMatchesTheSerialInversion)
{
    // The chunked re-timing, repaired serially, is the serial chain
    // bit for bit: on both sides of every chunk edge, for mild and
    // steep swings, periods far shorter and far longer than the day,
    // and a sparse and a dense rate.
    constexpr size_t chunk = TraceTemplate::kDiurnalChunk;
    const size_t counts[] = {0,         1,     2, chunk - 1, chunk,
                             chunk + 1, 2 * chunk + 1, 40000};
    LoadSpec spec;
    TraceTemplate tmpl(spec);
    tmpl.ensure(40000);
    for (double ratio : {1.5, 2.0, 3.0, 10.0}) {
        for (double period : {0.001, 0.5, 20.0, 3600.0}) {
            for (double rate : {100.0, 5000.0}) {
                const DiurnalProfile profile(ratio, period);
                // The chain is prefix-stable: a shorter day is the
                // longest day's prefix.
                const QueryTrace reference =
                    serialDiurnalReference(tmpl, rate, profile, 40000);
                for (size_t count : counts) {
                    const QueryTrace trace =
                        tmpl.materializeDiurnal(rate, profile, count);
                    ASSERT_EQ(trace.size(), count);
                    for (size_t i = 0; i < count; i++) {
                        const Query& a = trace[i];
                        const Query& b = reference[i];
                        if (a.id == b.id && a.size == b.size &&
                            std::bit_cast<uint64_t>(a.arrivalSeconds) ==
                                std::bit_cast<uint64_t>(b.arrivalSeconds))
                            continue;
                        ADD_FAILURE()
                            << "query " << i << " of " << count
                            << " at peak/trough " << ratio << ", period "
                            << period << " s, " << rate << " q/s: "
                            << a.arrivalSeconds << " vs reference "
                            << b.arrivalSeconds;
                        break;
                    }
                }
            }
        }
    }
}

TEST(LoadgenDeath, NonPositiveRatesAreConfigErrors)
{
    LoadSpec spec;
    spec.qps = 0.0;
    EXPECT_EXIT(QueryStream{spec}, ::testing::ExitedWithCode(1),
                "arrival rate must be positive, got 0 q/s");
    spec.qps = -5.0;
    EXPECT_EXIT(QueryStream{spec}, ::testing::ExitedWithCode(1),
                "arrival rate must be positive, got -5 q/s");
    TraceTemplate tmpl{LoadSpec{}};
    tmpl.ensure(10);
    EXPECT_EXIT(tmpl.materializeDiurnal(-3.0, DiurnalProfile(2.0, 10.0), 10),
                ::testing::ExitedWithCode(1),
                "mean rate must be positive, got -3 q/s");
    EXPECT_EXIT(tmpl.materializeDiurnal(0.0, DiurnalProfile(1.0), 10),
                ::testing::ExitedWithCode(1),
                "mean rate must be positive, got 0 q/s");
}

TEST(LoadgenDeath, NonPositiveOrNanTemplateRatesAreConfigErrors)
{
    // Re-timing at a zero rate gave infinite arrivals, and at a
    // negative one an unsorted trace; both templates refuse them.
    TraceTemplate tmpl{LoadSpec{}};
    tmpl.ensure(10);
    MixedTraceTemplate mixed(LoadSpec{}, {0.5, 0.5});
    mixed.ensure(10);
    EXPECT_EXIT(tmpl.materialize(0.0, 10), ::testing::ExitedWithCode(1),
                "arrival rate must be positive, got 0 q/s");
    EXPECT_EXIT(tmpl.materialize(-100.0, 10), ::testing::ExitedWithCode(1),
                "arrival rate must be positive, got -100 q/s");
    EXPECT_EXIT(tmpl.materialize(std::nan(""), 10),
                ::testing::ExitedWithCode(1),
                "arrival rate must be positive, got nan q/s");
    EXPECT_EXIT(mixed.materialize(0.0, 10), ::testing::ExitedWithCode(1),
                "arrival rate must be positive, got 0 q/s");
    EXPECT_EXIT(mixed.materialize(-100.0, 10), ::testing::ExitedWithCode(1),
                "arrival rate must be positive, got -100 q/s");
    EXPECT_EXIT(mixed.materialize(std::nan(""), 10),
                ::testing::ExitedWithCode(1),
                "arrival rate must be positive, got nan q/s");
}

TEST(LoadgenDeath, BadDiurnalProfilesAreConfigErrors)
{
    EXPECT_EXIT(DiurnalProfile(0.5), ::testing::ExitedWithCode(1),
                "peak/trough ratio must be >= 1, got 0.5");
    EXPECT_EXIT(DiurnalProfile(2.0, 0.0), ::testing::ExitedWithCode(1),
                "period must be positive, got 0 s");
    EXPECT_EXIT(DiurnalProfile(2.0, -1.0), ::testing::ExitedWithCode(1),
                "period must be positive, got -1 s");
}

TEST(LoadgenDeath, BadTrafficFractionsAreConfigErrors)
{
    EXPECT_EXIT(splitCountByFraction({0.5, 0.4}, 10),
                ::testing::ExitedWithCode(1),
                "traffic fractions sum to 0.9, not 1");
    EXPECT_EXIT(splitCountByFraction({0.6, -0.1, 0.5}, 10),
                ::testing::ExitedWithCode(1),
                "traffic fraction 1 is -0.1; fractions must be non-negative");
    EXPECT_EXIT(splitCountByFraction({}, 10), ::testing::ExitedWithCode(1),
                "a mix needs at least one model");
}

/** Every distribution kind drives a stream without issue. */
class StreamKinds : public ::testing::TestWithParam<SizeDistKind>
{
};

TEST_P(StreamKinds, GeneratesValidTrace)
{
    LoadSpec spec;
    spec.sizes = GetParam();
    spec.qps = 100.0;
    QueryStream stream(spec);
    const QueryTrace trace = stream.generate(500);
    for (const Query& q : trace) {
        EXPECT_GE(q.size, 1u);
        EXPECT_LE(q.size, QuerySizeDistribution::maxSize);
    }
}

TEST_P(StreamKinds, TwoGenerateCallsAreOneMaterialize)
{
    // The second call continues the first one's clock: together they
    // are the template's one re-timing, and a serial draw of the
    // unit-rate gaps and sizes re-timed one query at a time.
    LoadSpec spec;
    spec.sizes = GetParam();
    spec.qps = 700.0;
    spec.arrivalSeed = 31;
    spec.sizeSeed = 32;
    QueryStream stream(spec);
    QueryTrace streamed = stream.generate(300);
    const QueryTrace rest = stream.generate(500);
    streamed.insert(streamed.end(), rest.begin(), rest.end());

    TraceTemplate tmpl(spec);
    tmpl.ensure(800);
    const QueryTrace materialized = tmpl.materialize(spec.qps, 800);

    ArrivalProcess gaps(spec.arrivalSeed);
    QuerySizeDistribution sizes =
        QuerySizeDistribution::byKind(spec.sizes, spec.sizeSeed);
    double clock = 0.0;
    ASSERT_EQ(streamed.size(), 800u);
    ASSERT_EQ(materialized.size(), 800u);
    const QueryTrace* traces[] = {&streamed, &materialized};
    for (size_t i = 0; i < 800; i++) {
        clock += gaps.nextGap() / spec.qps;
        const uint32_t size = sizes.sample();
        for (const QueryTrace* trace : traces) {
            const Query& q = (*trace)[i];
            EXPECT_EQ(q.id, i);
            EXPECT_EQ(std::bit_cast<uint64_t>(q.arrivalSeconds),
                      std::bit_cast<uint64_t>(clock))
                << "query " << i;
            EXPECT_EQ(q.size, size) << "query " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Kinds, StreamKinds,
                         ::testing::Values(SizeDistKind::Production,
                                           SizeDistKind::Lognormal,
                                           SizeDistKind::Normal));

} // namespace
} // namespace deeprecsys
