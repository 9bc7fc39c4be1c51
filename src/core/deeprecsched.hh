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

/** Hill-climbing scheduler over a DeepRecInfra context. */
class DeepRecSched
{
  public:
    /** Tolerated relative QPS regression before the climb stops. */
    static constexpr double climbSlack = 0.02;

    /**
     * Static baseline batch size: the largest query split evenly
     * across every core.
     */
    static size_t staticBaselineBatch(uint32_t max_query_size,
                                      size_t cores);

    /** Evaluate the fixed-batch production baseline. */
    static TuningResult baseline(const DeepRecInfra& infra, double sla_ms);

    /**
     * DeepRecSched-CPU: hill-climb the per-request batch size
     * (doubling from 1) until the achievable QPS degrades.
     */
    static TuningResult tuneCpu(const DeepRecInfra& infra, double sla_ms);

    /**
     * DeepRecSched-GPU: after batch tuning, hill-climb the query-size
     * threshold upward from "offload everything" until QPS degrades.
     * Requires the infra to have an attached accelerator.
     */
    static TuningResult tuneGpu(const DeepRecInfra& infra, double sla_ms);

    /**
     * DeepRecSched-GPU from a given stage 1, a batch climb that
     * offloads nothing. A policy that offloads nothing prices exactly
     * as on the same machine without the accelerator, so @p stage1
     * may be tuneCpu on that CPU-only machine: the result is bitwise
     * tuneGpu(infra, sla_ms).
     */
    static TuningResult tuneGpu(const DeepRecInfra& infra, double sla_ms,
                                const TuningResult& stage1);

    /** Maximum per-request batch size explored by the climb. */
    static constexpr size_t maxBatch = 1024;
};

} // namespace deeprecsys

#endif // DRS_CORE_DEEPRECSCHED_HH
