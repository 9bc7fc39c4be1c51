#include "deeprecsched.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/logging.hh"
#include "loadgen/distributions.hh"

namespace deeprecsys {

namespace {

/** Throughput of @p machine under @p search with its one binding's
 *  policy set to @p policy. */
QpsSearchResult
measure(const SimConfig& machine, const SchedulerPolicy& policy,
        const QpsSearchSpec& search)
{
    drs_assert(machine.bindings.size() == 1,
               "DeepRecSched tunes a single-model machine");
    SimConfig tuned = machine;
    tuned.bindings.front().policy = policy;
    return findMaxQps(tuned, search);
}

/**
 * Hill-climb one knob of @p policy (Section IV-C): evaluate it at
 * @p first and then at each value @p next yields, up to @p last. A
 * value becomes the best when its achievable QPS beats the best so far
 * (DeepRecSched::beats); a second value in a row that does not
 * confirms the peak and ends the climb, so a single noisy plateau step
 * does not. Each evaluation is appended to @p curve. Leaves the best
 * value in @p policy and returns the search at it.
 */
template <typename Knob, typename Next>
QpsSearchResult
climb(const SimConfig& machine, const QpsSearchSpec& search,
      SchedulerPolicy& policy, Knob SchedulerPolicy::*knob, Knob first,
      Knob last, Next next, std::vector<TuningPoint>& curve)
{
    QpsSearchResult best;
    Knob best_value = first;
    size_t strikes = 0;
    for (Knob value = first; value <= last; value = next(value)) {
        policy.*knob = value;
        QpsSearchResult r = measure(machine, policy, search);
        curve.push_back({static_cast<double>(value), r.maxQps});
        if (value == first || DeepRecSched::beats(r.maxQps, best.maxQps)) {
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

size_t
DeepRecSched::staticBaselineBatch(size_t cores)
{
    drs_assert(cores >= 1, "baseline needs cores");
    return (QuerySizeDistribution::maxSize + cores - 1) / cores;
}

TuningResult
DeepRecSched::baseline(const SimConfig& machine, const QpsSearchSpec& search)
{
    TuningResult result;
    result.policy.perRequestBatch = staticBaselineBatch(machine.cores());
    result.atBest = measure(machine, result.policy, search);
    return result;
}

TuningResult
DeepRecSched::tuneCpu(const SimConfig& machine, const QpsSearchSpec& search)
{
    // The batch doubles from a unit batch, nothing offloaded.
    TuningResult result;
    result.atBest = climb(
        machine, search, result.policy, &SchedulerPolicy::perRequestBatch,
        size_t{1}, maxBatch, [](size_t batch) { return batch * 2; },
        result.batchCurve);
    return result;
}

TuningResult
DeepRecSched::tuneGpu(const SimConfig& machine, const QpsSearchSpec& search)
{
    // Stage 1: batch size for the CPU-resident share of the work.
    return tuneGpu(machine, search, tuneCpu(machine, search));
}

TuningResult
DeepRecSched::tuneGpu(const SimConfig& machine, const QpsSearchSpec& search,
                      const TuningResult& cpu)
{
    drs_assert(machine.bindings.front().gpu.has_value(),
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
        machine, search, result.policy, &SchedulerPolicy::gpuQueryThreshold,
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
