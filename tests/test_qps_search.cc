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
#include "bench/bench_common.hh"
#include "core/deeprecsched.hh"
#include "sim/qps_search.hh"
#include "sim/rate_search.hh"

namespace deeprecsys {
namespace {

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
    const QpsSearchResult r = findMaxQps(bench::cpuMachine(256), spec(100.0));
    EXPECT_GT(r.maxQps, 100.0);
    EXPECT_GT(r.evaluations, 2u);
}

TEST(QpsSearch, ImpossibleSlaGivesZero)
{
    // 0.01 ms is below any single-request service time.
    const QpsSearchResult r = findMaxQps(bench::cpuMachine(256), spec(0.01));
    EXPECT_DOUBLE_EQ(r.maxQps, 0.0);
}

TEST(QpsSearch, RelaxedSlaSustainsMoreLoad)
{
    const double tight = findMaxQps(bench::cpuMachine(256), spec(50.0)).maxQps;
    const double loose = findMaxQps(bench::cpuMachine(256), spec(150.0)).maxQps;
    EXPECT_GT(loose, tight);
}

TEST(QpsSearch, ResultMeetsSla)
{
    const QpsSearchResult r = findMaxQps(bench::cpuMachine(256), spec(100.0));
    EXPECT_LE(r.atMax.p95Ms(), 100.0);
}

TEST(QpsSearch, DeterministicAcrossCalls)
{
    const double a = findMaxQps(bench::cpuMachine(256), spec(100.0)).maxQps;
    const double b = findMaxQps(bench::cpuMachine(256), spec(100.0)).maxQps;
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(QpsSearch, EvaluateAtQpsRunsTrace)
{
    LoadSpec load;
    const SimResult r = evaluateAtQps(bench::cpuMachine(256), load, 200.0, 800);
    EXPECT_GT(r.numQueries, 0u);
    EXPECT_NEAR(r.offeredQps, 200.0, 30.0);
}

TEST(QpsSearch, BatchSizeChangesThroughput)
{
    // The core premise of DeepRecSched: the knob matters.
    const double q_small = findMaxQps(bench::cpuMachine(8), spec(100.0)).maxQps;
    const double q_large =
        findMaxQps(bench::cpuMachine(1024), spec(100.0)).maxQps;
    EXPECT_GT(q_large, 1.3 * q_small);
}

TEST(QpsSearch, PremiseHoldsAcrossDenseRateLadders)
{
    // The search's premise (sim/qps_search.hh): re-timing one drawn
    // population keeps the SLA verdict monotone in the rate. On a few
    // Figure 11 cells, the baseline policy with the GPU off and the
    // tuned DRS-GPU policy with it on, a dense ladder of rates around
    // the found maxQps must meet the SLA up to some rate and miss it
    // above: every rate at or below maxQps meets, and every rate past
    // the bisection's last infeasible bound (within 2% above maxQps,
    // findMaxQps's tolerance) misses.
    constexpr double kSearchTolerance = 0.02;
    constexpr int kRungs = 60;
    for (auto [id, tier] : {std::pair{ModelId::DlrmRmc1, SlaTier::Medium},
                            std::pair{ModelId::WideAndDeep, SlaTier::Low},
                            std::pair{ModelId::Din, SlaTier::High}}) {
        for (bool gpu : {false, true}) {
            const DeepRecInfra infra(bench::defaultInfra(id, gpu));
            const double sla = infra.slaMs(tier);
            const TuningResult tuned = gpu
                ? DeepRecSched::tuneGpu(infra, sla)
                : DeepRecSched::baseline(infra, sla);
            const double max_qps = tuned.qps();
            ASSERT_GT(max_qps, 0.0) << modelName(id);
            const SimConfig sim = infra.simConfig(tuned.policy);
            LoadSpec load;
            load.sizes = infra.config().sizeDist;
            load.arrivalSeed = infra.config().seed;
            load.sizeSeed = infra.config().seed + 1;
            bool missed = false;
            for (int r = 0; r <= kRungs; r++) {
                const double qps =
                    max_qps * (0.5 + static_cast<double>(r) / kRungs);
                const bool meets =
                    evaluateAtQps(sim, load, qps,
                                  infra.config().numQueries)
                        .tailMs(95.0) <= sla;
                const std::string where = modelName(id) +
                    (gpu ? " gpu" : " cpu") + " at " +
                    std::to_string(qps / max_qps) + "x maxQps";
                EXPECT_FALSE(missed && meets)
                    << where << " meets the SLA above a rate that missed";
                if (qps <= max_qps) {
                    EXPECT_TRUE(meets) << where;
                }
                if (qps >= max_qps / (1.0 - kSearchTolerance)) {
                    EXPECT_FALSE(meets) << where;
                }
                missed = missed || !meets;
            }
        }
    }
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

TEST(QpsSearchPremise, RatesBelowTheMaxMeetTheSlaAndRatesAboveMissIt)
{
    // The bisection assumes that re-timing one population is monotone
    // in the rate. Scan 16 rates around a few fig11 cells' maxQps,
    // with the baseline on the CPU and DeepRecSched-GPU's offload:
    // the found rate and every rate below it meet the SLA, and every
    // rate beyond the search's final bracket (2% above) misses it.
    for (ModelId id : {ModelId::DlrmRmc1, ModelId::DlrmRmc3, ModelId::Din}) {
        for (SlaTier tier : {SlaTier::Low, SlaTier::High}) {
            for (bool gpu : {false, true}) {
                const DeepRecInfra infra(bench::defaultInfra(id, gpu));
                const double sla = infra.slaMs(tier);
                const TuningResult tuned = gpu
                    ? DeepRecSched::tuneGpu(infra, sla)
                    : DeepRecSched::baseline(infra, sla);
                const double max_qps = tuned.qps();
                ASSERT_GT(max_qps, 0.0);
                LoadSpec load;
                load.sizes = infra.config().sizeDist;
                load.arrivalSeed = infra.config().seed;
                load.sizeSeed = infra.config().seed + 1;
                for (int k = 0; k < 8; k++) {
                    for (double scale : {1.0 - 0.06 * k, 1.03 + 0.07 * k}) {
                        const SimResult r = evaluateAtQps(
                            infra.simConfig(tuned.policy), load,
                            scale * max_qps, infra.config().numQueries);
                        EXPECT_EQ(r.tailMs(QpsSearchSpec::percentile) <= sla,
                                  scale <= 1.0)
                            << modelName(id) << " " << slaTierName(tier)
                            << (gpu ? " gpu" : " cpu") << " at " << scale
                            << "x of " << max_qps << " q/s";
                    }
                }
            }
        }
    }
}

// A bad search spec is a user error: it exits with status 1
// (drs_fatal), it does not abort like a broken invariant.
TEST(QpsSearchDeath, NonPositiveSlaIsAValidatedError)
{
    EXPECT_EXIT((void)findMaxQps(bench::cpuMachine(256), spec(0.0)),
                ::testing::ExitedWithCode(1), "SLA target must be positive");
}

} // namespace
} // namespace deeprecsys
