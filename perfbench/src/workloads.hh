/**
 * @file
 * The benchmark's workloads and the three stages each one runs.
 *
 * A workload is the traffic a DeepRecSys deployment sees; it selects
 * the query-size distribution of every trace the run draws:
 *
 *  - production: the production distribution (a lognormal body with a
 *    Pareto tail, Fig. 5), the one the paper tunes for.
 *  - lognormal: the lognormal body alone, without the heavy tail. Its
 *    queries are smaller, so its offered rates are scaled up by
 *    Options::loadScale to keep the day's peak above capacity.
 *
 * Every workload runs the same three stages, one after the other, each
 * a question a DeepRecSys user asks:
 *
 *  - zoo_tune: the Fig. 11 question (static baseline, DeepRecSched-CPU
 *    and -GPU for every Table-1 model at its Medium SLA). Drives core,
 *    the QPS searches, the machine engine, the thread pool and the
 *    cost model; no cluster, obs or nn code.
 *  - fleet_day: one seeded diurnal day on a wide colocated, sharded,
 *    replicated, overloaded and chaotic tier, served by the static
 *    driver (with hedging) and by the elastic driver (with a sampled
 *    observer).
 *  - engine_serve: the real ServingEngine running DLRM-RMC1 kernels
 *    under open-loop Poisson traffic at three fixed rates; none of the
 *    simulator.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <memory>

#include "bench.hh"

namespace perfbench {

/**
 * One stage of a workload. Its state is built by setUp (timed as part
 * of the run's set-up) and used by every rep; finish reports it.
 */
class Stage
{
  public:
    virtual ~Stage() = default;

    /** Free the state of the previous set-up (not timed). */
    virtual void clear() = 0;

    /** Build the stage's machines, placement, traces and models. */
    virtual void setUp(Tracer* tracer) = 0;

    /**
     * Answer the stage's question once, record its output checks in
     * @p report, and return the digest of its simulated statistics.
     */
    virtual Digest rep(Tracer* tracer, Report& report) = 0;

    /**
     * Report lines and the stage's metrics after the last rep: its
     * end-to-end metrics on an untraced run, its per-layer metrics
     * (from the span totals of @p log) on a traced one.
     */
    virtual void finish(const RepLog& log, Report& report) = 0;
};

std::unique_ptr<Stage> makeZooTune(const Options& opt);
std::unique_ptr<Stage> makeFleetDay(const Options& opt);
std::unique_ptr<Stage> makeEngineServe(const Options& opt);

/** Run every stage of workload opt.workload into @p report. */
void runWorkload(const Options& opt, Report& report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
