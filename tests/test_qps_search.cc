/**
 * @file
 * Tests for the latency-bounded max-QPS search and the rate search
 * under it.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "base/thread_pool.hh"
#include "sim/qps_search.hh"
#include "sim/rate_search.hh"

namespace deeprecsys {
namespace {

SimConfig
rmc1Config(size_t batch)
{
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc1);
    SchedulerPolicy policy;
    policy.perRequestBatch = batch;
    return SimConfig{CpuCostModel(profile, CpuPlatform::skylake()),
                     std::nullopt, policy};
}

QpsSearchSpec
spec(double sla_ms, size_t num_queries = 1200)
{
    QpsSearchSpec s;
    s.slaMs = sla_ms;
    s.numQueries = num_queries;
    return s;
}

TEST(QpsSearch, FeasibleSlaGivesPositiveQps)
{
    const QpsSearchResult r = findMaxQps(rmc1Config(256), spec(100.0));
    EXPECT_GT(r.maxQps, 100.0);
    EXPECT_GT(r.evaluations, 2u);
}

TEST(QpsSearch, ImpossibleSlaGivesZero)
{
    // 0.01 ms is below any single-request service time.
    const QpsSearchResult r = findMaxQps(rmc1Config(256), spec(0.01));
    EXPECT_DOUBLE_EQ(r.maxQps, 0.0);
}

TEST(QpsSearch, RelaxedSlaSustainsMoreLoad)
{
    const double tight = findMaxQps(rmc1Config(256), spec(50.0)).maxQps;
    const double loose = findMaxQps(rmc1Config(256), spec(150.0)).maxQps;
    EXPECT_GT(loose, tight);
}

TEST(QpsSearch, ResultMeetsSla)
{
    const QpsSearchResult r = findMaxQps(rmc1Config(256), spec(100.0));
    EXPECT_LE(r.atMax.p95Ms(), 100.0);
}

TEST(QpsSearch, DeterministicAcrossCalls)
{
    const double a = findMaxQps(rmc1Config(256), spec(100.0)).maxQps;
    const double b = findMaxQps(rmc1Config(256), spec(100.0)).maxQps;
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(QpsSearch, PercentileChoiceMatters)
{
    QpsSearchSpec p95 = spec(100.0);
    QpsSearchSpec p99 = spec(100.0);
    p99.percentile = 99.0;
    const double q95 = findMaxQps(rmc1Config(256), p95).maxQps;
    const double q99 = findMaxQps(rmc1Config(256), p99).maxQps;
    EXPECT_GE(q95, q99);    // p99 is a stricter constraint
}

TEST(QpsSearch, EvaluateAtQpsRunsTrace)
{
    LoadSpec load;
    const SimResult r = evaluateAtQps(rmc1Config(256), load, 200.0, 800);
    EXPECT_GT(r.numQueries, 0u);
    EXPECT_NEAR(r.offeredQps, 200.0, 30.0);
}

TEST(QpsSearch, BatchSizeChangesThroughput)
{
    // The core premise of DeepRecSched: the knob matters.
    const double q_small = findMaxQps(rmc1Config(8), spec(100.0)).maxQps;
    const double q_large =
        findMaxQps(rmc1Config(1024), spec(100.0)).maxQps;
    EXPECT_GT(q_large, 1.3 * q_small);
}

TEST(RateSearch, EvaluatesCandidatesInOrderOnCallingThread)
{
    // Even with a many-thread shared pool, one search is a serial walk
    // on its caller: every evaluation happens on the calling thread,
    // no rate is evaluated twice, and `evaluations` counts them all.
    ThreadPool::setSharedThreads(8);
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex mu;
    std::vector<double> rates;
    size_t offThread = 0;
    auto eval = [&](double rate) -> std::pair<double, bool> {
        // Slow enough that idle workers would pick up any candidate
        // handed to them.
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        std::lock_guard<std::mutex> lock(mu);
        rates.push_back(rate);
        if (std::this_thread::get_id() != caller)
            offThread++;
        return {rate, rate <= 1234.5};
    };
    RateSearchKnobs knobs;
    const RateSearchOutcome<double> found =
        findMaxRateUnderSla<double>(eval, knobs);
    ThreadPool::setSharedThreads(1);

    EXPECT_EQ(offThread, 0u);
    EXPECT_EQ(rates.size(), found.evaluations);
    EXPECT_EQ(std::set<double>(rates.begin(), rates.end()).size(),
              rates.size());
    EXPECT_LE(found.maxQps, 1234.5);
    EXPECT_GE(found.maxQps, 1234.5 * (1.0 - knobs.relTolerance));
    EXPECT_EQ(found.atMax, found.maxQps);
}

TEST(RateSearch, FeasibleCeilingIsTestedNotSkipped)
{
    // Regression for a divergence between the twin searches: the
    // single-machine bisection used to return the last feasible
    // geometric probe when the ceiling was reached, while the cluster
    // search tested the ceiling itself. A feasible ceiling is now
    // reported exactly.
    RateSearchKnobs knobs;
    knobs.qpsCeiling = 500.0;
    std::vector<double> rates;
    auto eval = [&](double rate) -> std::pair<double, bool> {
        rates.push_back(rate);
        return {rate, true};
    };
    const RateSearchOutcome<double> found =
        findMaxRateUnderSla<double>(eval, knobs);
    EXPECT_DOUBLE_EQ(found.maxQps, 500.0);
    EXPECT_DOUBLE_EQ(found.atMax, 500.0);
    ASSERT_FALSE(rates.empty());
    EXPECT_DOUBLE_EQ(rates.back(), 500.0);
}

// A bad search spec is a user error: it exits with status 1
// (drs_fatal), it does not abort like a broken invariant.
TEST(QpsSearchDeath, NonPositiveSlaIsAValidatedError)
{
    EXPECT_EXIT((void)findMaxQps(rmc1Config(256), spec(0.0)),
                ::testing::ExitedWithCode(1), "SLA target must be positive");
}

TEST(QpsSearchDeath, OutOfRangePercentileIsAValidatedError)
{
    QpsSearchSpec bad = spec(100.0);
    bad.percentile = 150.0;
    EXPECT_EXIT((void)findMaxQps(rmc1Config(256), bad),
                ::testing::ExitedWithCode(1),
                "SLA percentile 150 is outside \\[0, 100\\]");
}

} // namespace
} // namespace deeprecsys
