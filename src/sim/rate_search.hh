/**
 * @file
 * The one latency-bounded rate search behind findMaxQps and
 * findClusterMaxQps: geometric growth to bracket the feasible
 * boundary, then bisection on a ladder of kBisectionMidpoints evenly
 * spaced midpoints per step.
 *
 * The search is serial and runs on the calling thread: each candidate
 * is evaluated in ascending order and its verdict decides the next
 * one. Within a bisection step, feasible midpoints advance the lower
 * bound and the first infeasible one becomes the upper bound and ends
 * the step. Candidates are pure functions of the spec, so the result
 * is bit-identical at every DRS_THREADS value. Parallelism belongs one
 * level up, across independent searches (bench::sweepMap).
 *
 * `evaluations` counts every candidate evaluated.
 *
 * The two public searches used to carry private near-copies of this
 * loop and diverged once (ceiling handling); this header owns the
 * mechanics exactly once.
 */

#ifndef DRS_SIM_RATE_SEARCH_HH
#define DRS_SIM_RATE_SEARCH_HH

#include <algorithm>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace deeprecsys {

/**
 * Refuse (drs_fatal) a tail-latency SLA no run can be checked against:
 * a target of @p sla_ms that is not positive, or a @p percentile
 * outside [0, 100]. Every entry point that judges runs by a tail
 * calls it before its first run.
 */
inline void
validateSla(double sla_ms, double percentile)
{
    if (!(sla_ms > 0.0))
        drs_fatal("SLA target must be positive");
    if (!(percentile >= 0.0 && percentile <= 100.0))
        drs_fatal("SLA percentile ", percentile, " is outside [0, 100]");
}

/** Midpoints per bisection step: each step splits (lo, hi) into
 *  kBisectionMidpoints + 1 equal parts, walked from the bottom. */
inline constexpr size_t kBisectionMidpoints = 3;

/**
 * The ascending midpoints of one bisection step over (lo, hi), where
 * mid(j) = lo + step(j) for j = 1..kBisectionMidpoints. Midpoints
 * that do not land strictly inside the interval, or do not rise, are
 * dropped (floating-point or integer exhaustion), so the ladder may be
 * empty.
 */
template <typename T, typename Step>
std::vector<T>
bisectionLadder(T lo, T hi, Step step)
{
    std::vector<T> mids;
    for (size_t j = 1; j <= kBisectionMidpoints; j++) {
        const T mid = lo + step(j);
        if (mid > lo && mid < hi && (mids.empty() || mid > mids.back()))
            mids.push_back(mid);
    }
    return mids;
}

/** Shape of the growth + bisection ladder. */
struct RateSearchKnobs
{
    double qpsFloor = 0.5;      ///< feasibility probe; infeasible ⇒ 0
    double qpsCeiling = 2e6;    ///< search upper bound (tested exactly)
    double relTolerance = 0.02; ///< bisection termination width
    double growthStart = 64.0;  ///< first geometric rung (doubles)
};

/** Outcome of a rate search over an arbitrary result type. */
template <typename Result>
struct RateSearchOutcome
{
    double maxQps = 0.0;    ///< 0 when the SLA is unachievable
    Result atMax{};         ///< evaluation at the found rate
    size_t evaluations = 0; ///< candidates evaluated by the search
};

/**
 * Find the maximum rate whose evaluation meets the SLA.
 *
 * @param eval pure function: rate -> {Result, meets}; equal rates
 *             must give bit-identical results.
 */
template <typename Result, typename Eval>
RateSearchOutcome<Result>
findMaxRateUnderSla(const Eval& eval, const RateSearchKnobs& knobs)
{
    RateSearchOutcome<Result> result;

    // Evaluate one candidate: a feasible rate advances (lo, atLo); an
    // infeasible one sets hi. Returns whether the rate was feasible.
    double lo = 0.0;
    Result atLo{};
    double hi = 0.0;
    auto feasible = [&](double rate) {
        std::pair<Result, bool> point = eval(rate);
        result.evaluations++;
        if (point.second) {
            lo = rate;
            atLo = std::move(point.first);
        } else {
            hi = rate;
        }
        return point.second;
    };

    // Feasibility probe: if the SLA cannot be met when the system is
    // effectively unloaded, no rate will help.
    if (!feasible(knobs.qpsFloor))
        return result;

    // Exponential growth until the SLA breaks (or the ceiling).
    bool bracketed = false;
    for (double rung = std::max(knobs.growthStart, 2.0 * knobs.qpsFloor);
         !bracketed && rung < knobs.qpsCeiling; rung *= 2.0)
        bracketed = !feasible(rung);
    // Every rung below the ceiling was feasible: test the ceiling
    // itself, and bisect up to it when it fails.
    if (!bracketed && feasible(knobs.qpsCeiling)) {
        result.maxQps = knobs.qpsCeiling;
        result.atMax = std::move(atLo);
        return result;
    }

    // Bisection on the feasible boundary: each step walks its ladder
    // up to the first infeasible midpoint, shrinking (lo, hi) by
    // (kBisectionMidpoints + 1)x.
    while ((hi - lo) / hi > knobs.relTolerance) {
        const double step =
            (hi - lo) / static_cast<double>(kBisectionMidpoints + 1);
        const std::vector<double> mids =
            bisectionLadder(lo, hi, [&](size_t j) {
                return step * static_cast<double>(j);
            });
        if (mids.empty())
            break;   // floating-point exhaustion of the interval
        for (double mid : mids) {
            if (!feasible(mid))
                break;
        }
    }
    result.maxQps = lo;
    result.atMax = std::move(atLo);
    return result;
}

} // namespace deeprecsys

#endif // DRS_SIM_RATE_SEARCH_HH
