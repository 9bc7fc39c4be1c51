/**
 * @file
 * DeepRecSched: the hill-climbing scheduler (paper Section IV).
 *
 * Two knobs are tuned against latency-bounded throughput:
 *
 *  1. the per-request batch size — queries are split into requests
 *     served by parallel cores, trading request- vs batch-level
 *     parallelism; starting from a unit batch, the size is raised
 *     while the achievable QPS under the SLA improves;
 *  2. the accelerator query-size threshold — starting from the
 *     minimum (every query offloaded), the threshold is raised,
 *     keeping more small queries on the CPU, while QPS improves.
 *
 * The static production baseline fixes the batch so the largest query
 * splits evenly across all cores (Section V), e.g. 25 on a 40-core
 * Skylake for a maximum query size of 1000.
 *
 * The knobs land in SchedulerPolicy (sim/machine_engine.hh), the
 * scheduler hook of the unified per-machine engine — so a policy
 * tuned here behaves identically on the single-machine simulator it
 * was tuned against and on every machine of a simulated cluster or
 * fleet.
 */

#ifndef DRS_CORE_DEEPRECSCHED_HH
#define DRS_CORE_DEEPRECSCHED_HH

#include <functional>
#include <ranges>
#include <vector>

#include "core/deeprecinfra.hh"

namespace deeprecsys {

/** One point of a tuning curve (for Figures 9 and 10). */
struct TuningPoint
{
    double knob = 0;    ///< batch size or query-size threshold
    double qps = 0;     ///< achievable QPS under the SLA
};

/** Outcome of a DeepRecSched tuning run. */
struct TuningResult
{
    SchedulerPolicy policy;     ///< tuned configuration
    QpsSearchResult atBest;     ///< throughput at that configuration
    std::vector<TuningPoint> batchCurve;      ///< batch-size sweep
    std::vector<TuningPoint> thresholdCurve;  ///< threshold sweep

    double qps() const { return atBest.maxQps; }
};

/**
 * Hill-climbing scheduler over one machine under one load: a
 * single-binding SimConfig (its policy is what the climb sets) and the
 * QpsSearchSpec every candidate is measured with. The DeepRecInfra
 * forms tune infra.simConfig under infra.searchSpec(sla_ms).
 */
class DeepRecSched
{
  public:
    /** Relative QPS margin by which a candidate must beat the best. */
    static constexpr double climbSlack = 0.02;

    /**
     * The one acceptance rule of the climb and of a grid pick: @p qps
     * beats @p best by more than the slack margin.
     */
    static bool
    beats(double qps, double best)
    {
        return qps > best * (1.0 + climbSlack);
    }

    /**
     * The best point of a measured grid under the climb's acceptance
     * rule: point 0, replaced by each later point that beats the
     * current pick. @p qps projects a point to its QPS. Returns its
     * index. Over a climb's own curve it returns the climb's choice.
     */
    template <std::ranges::random_access_range Curve,
              typename Proj = std::identity>
    static size_t
    gridPick(const Curve& curve, Proj qps = {})
    {
        size_t pick = 0;
        for (size_t i = 1; i < std::ranges::size(curve); i++) {
            if (beats(std::invoke(qps, curve[i]),
                      std::invoke(qps, curve[pick])))
                pick = i;
        }
        return pick;
    }

    /**
     * Static baseline batch size: the largest query
     * (QuerySizeDistribution::maxSize) split evenly across every core.
     */
    static size_t staticBaselineBatch(size_t cores);

    /** Evaluate the fixed-batch production baseline. */
    static TuningResult baseline(const SimConfig& machine,
                                 const QpsSearchSpec& search);

    /**
     * DeepRecSched-CPU: hill-climb the per-request batch size
     * (doubling from 1) until the achievable QPS degrades.
     */
    static TuningResult tuneCpu(const SimConfig& machine,
                                const QpsSearchSpec& search);

    /**
     * DeepRecSched-GPU: after batch tuning, hill-climb the query-size
     * threshold upward from "offload everything" until QPS degrades.
     * Requires the machine to have an attached accelerator.
     */
    static TuningResult tuneGpu(const SimConfig& machine,
                                const QpsSearchSpec& search);

    /**
     * DeepRecSched-GPU from a given stage 1, a batch climb that
     * offloads nothing. A policy that offloads nothing prices exactly
     * as on the same machine without the accelerator, so @p stage1
     * may be tuneCpu on that CPU-only machine: the result is bitwise
     * tuneGpu(machine, search).
     */
    static TuningResult tuneGpu(const SimConfig& machine,
                                const QpsSearchSpec& search,
                                const TuningResult& stage1);

    /** Maximum per-request batch size explored by the climb. */
    static constexpr size_t maxBatch = 1024;

    /** The forms above on @p infra's machine at @p sla_ms. */
    static TuningResult
    baseline(const DeepRecInfra& infra, double sla_ms)
    {
        return baseline(infra.simConfig({}), infra.searchSpec(sla_ms));
    }

    static TuningResult
    tuneCpu(const DeepRecInfra& infra, double sla_ms)
    {
        return tuneCpu(infra.simConfig({}), infra.searchSpec(sla_ms));
    }

    static TuningResult
    tuneGpu(const DeepRecInfra& infra, double sla_ms)
    {
        return tuneGpu(infra.simConfig({}), infra.searchSpec(sla_ms));
    }

    static TuningResult
    tuneGpu(const DeepRecInfra& infra, double sla_ms,
            const TuningResult& stage1)
    {
        return tuneGpu(infra.simConfig({}), infra.searchSpec(sla_ms),
                       stage1);
    }
};

} // namespace deeprecsys

#endif // DRS_CORE_DEEPRECSCHED_HH
