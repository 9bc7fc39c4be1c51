#include "deeprecsched.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/logging.hh"
#include "loadgen/distributions.hh"

namespace deeprecsys {

size_t
DeepRecSched::staticBaselineBatch(uint32_t max_query_size, size_t cores)
{
    drs_assert(cores >= 1, "baseline needs cores");
    return std::max<size_t>(
        1, (max_query_size + cores - 1) / cores);
}

TuningResult
DeepRecSched::baseline(const DeepRecInfra& infra, double sla_ms)
{
    TuningResult result;
    result.policy.perRequestBatch = staticBaselineBatch(
        QuerySizeDistribution::maxSize, infra.config().platform.cores);
    result.policy.gpuEnabled = false;
    result.atBest = infra.maxQps(result.policy, sla_ms);
    return result;
}

namespace {

/**
 * Hill-climb one knob of @p policy (Section IV-C): evaluate it at
 * @p first and then at each value @p next yields, up to @p last. A
 * value becomes the best when its achievable QPS beats the best so far
 * by more than the slack margin; a second value in a row that does not
 * confirms the peak and ends the climb, so a single noisy plateau step
 * does not. Each evaluation is appended to @p curve. Leaves the best
 * value in @p policy and returns the search at it.
 */
template <typename Knob, typename Next>
QpsSearchResult
climb(const DeepRecInfra& infra, double sla_ms, SchedulerPolicy& policy,
      Knob SchedulerPolicy::*knob, Knob first, Knob last, Next next,
      std::vector<TuningPoint>& curve)
{
    QpsSearchResult best;
    Knob best_value = first;
    size_t strikes = 0;
    for (Knob value = first; value <= last; value = next(value)) {
        policy.*knob = value;
        QpsSearchResult r = infra.maxQps(policy, sla_ms);
        curve.push_back({static_cast<double>(value), r.maxQps});
        if (value == first ||
            r.maxQps > best.maxQps * (1.0 + DeepRecSched::climbSlack)) {
            best_value = value;
            best = std::move(r);
            strikes = 0;
        } else if (++strikes >= 2) {
            break;  // past the peak
        }
    }
    policy.*knob = best_value;
    return best;
}

} // namespace

TuningResult
DeepRecSched::tuneCpu(const DeepRecInfra& infra, double sla_ms)
{
    // The batch doubles from a unit batch.
    TuningResult result;
    result.policy.gpuEnabled = false;
    result.atBest = climb(
        infra, sla_ms, result.policy, &SchedulerPolicy::perRequestBatch,
        size_t{1}, maxBatch, [](size_t batch) { return batch * 2; },
        result.batchCurve);
    return result;
}

TuningResult
DeepRecSched::tuneGpu(const DeepRecInfra& infra, double sla_ms)
{
    // Stage 1: batch size for the CPU-resident share of the work.
    return tuneGpu(infra, sla_ms, tuneCpu(infra, sla_ms));
}

TuningResult
DeepRecSched::tuneGpu(const DeepRecInfra& infra, double sla_ms,
                      const TuningResult& cpu)
{
    drs_assert(infra.gpuModel() != nullptr,
               "tuneGpu needs an attached accelerator");
    drs_assert(!cpu.policy.gpuEnabled, "tuneGpu's stage 1 offloads");

    // Stage 2: climb the offload threshold from "everything on the
    // accelerator" upward. Thresholds walk the query-size range
    // geometrically with a floor step of 16 sizes; 1 offloads all
    // queries, maxSize+1 would be none.
    TuningResult result;
    result.batchCurve = cpu.batchCurve;
    result.policy = cpu.policy;
    result.policy.gpuEnabled = true;
    result.atBest = climb(
        infra, sla_ms, result.policy, &SchedulerPolicy::gpuQueryThreshold,
        uint32_t{1}, QuerySizeDistribution::maxSize,
        [](uint32_t threshold) {
            return std::max<uint32_t>(threshold + 16,
                static_cast<uint32_t>(std::lround(threshold * 1.5)));
        },
        result.thresholdCurve);

    // The CPU-only configuration remains a candidate: if keeping all
    // queries on cores beats every offload split, use it.
    if (cpu.qps() > result.qps()) {
        result.policy = cpu.policy;
        result.atBest = cpu.atBest;
    }
    return result;
}

} // namespace deeprecsys
