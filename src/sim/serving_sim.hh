/**
 * @file
 * Discrete-event simulator of one recommendation-serving machine.
 *
 * Queries arrive on a trace; the machine mechanics — scheduler-policy
 * offload vs batch splitting, the FIFO-fed core pool, service-time
 * pricing, utilization integrals — live in the shared MachineEngine
 * (sim/machine_engine.hh), which ClusterSimulator drives too. This
 * file is only the single-machine *driver*: it merges arrivals with
 * engine completions and keeps per-query latency statistics. A run
 * here is bit-identical to a 1-machine shardless ClusterSimulator
 * with zero network cost (enforced by tests/test_engine_diff.cc).
 *
 * Units: every time in SimConfig/SimResult is **seconds** except the
 * explicitly named millisecond accessors (p95Ms and friends);
 * SimConfig::memoryBytes is bytes. Ownership: the simulator copies
 * its SimConfig; results are self-contained values. Determinism:
 * run() is a pure function of the trace — no hidden random state —
 * so equal traces give bit-identical results.
 */

#ifndef DRS_SIM_SERVING_SIM_HH
#define DRS_SIM_SERVING_SIM_HH

#include <vector>

#include "base/stats.hh"
#include "loadgen/query.hh"
#include "sim/machine_engine.hh"

namespace deeprecsys {

/** Aggregate outcome of one simulation run. */
struct SimResult
{
    SampleStats queryLatencySeconds;   ///< measured queries only
    double spanSeconds = 0;            ///< measured arrival..completion
    double offeredQps = 0;             ///< from the trace
    double achievedQps = 0;            ///< measured completions / span
    uint64_t numQueries = 0;
    uint64_t numRequests = 0;          ///< CPU requests dispatched
    double cpuBusyCoreSeconds = 0;     ///< integral of busy cores
    double cpuUtilization = 0;         ///< busy-core-seconds / (span*cores)
    double gpuBusySeconds = 0;
    double gpuUtilization = 0;
    double gpuWorkFraction = 0;        ///< samples offloaded / total samples

    /** p95 latency in milliseconds. */
    double p95Ms() const { return queryLatencySeconds.percentile(95) * 1e3; }

    /** p99 latency in milliseconds. */
    double p99Ms() const { return queryLatencySeconds.percentile(99) * 1e3; }

    /** Mean latency in milliseconds. */
    double meanMs() const { return queryLatencySeconds.mean() * 1e3; }

    /** Tail latency at an arbitrary percentile, in milliseconds. */
    double
    tailMs(double pct) const
    {
        return queryLatencySeconds.percentile(pct) * 1e3;
    }
};

/** Single-machine serving simulator. */
class ServingSimulator
{
  public:
    explicit ServingSimulator(SimConfig config);

    /**
     * Run the trace to completion and gather statistics.
     * The trace must be sorted by arrival time.
     */
    SimResult run(const QueryTrace& trace);

    const SimConfig& config() const { return cfg; }

  private:
    SimConfig cfg;
};

} // namespace deeprecsys

#endif // DRS_SIM_SERVING_SIM_HH
