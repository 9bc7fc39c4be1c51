/**
 * @file
 * The in-run observability layer: query span tracing, windowed
 * metrics, and latency attribution for the simulation drivers.
 *
 * A RunObserver is attached to one run of a cluster driver
 * (ClusterSimulator or Autoscaler; the single-machine and fleet
 * simulators take none) and receives a narrow stream of
 * hooks as queries move through the system: router dispatch ->
 * per-machine queue wait -> service -> fan-out network hops -> join
 * wait -> completion. From that stream it builds three products:
 *
 *  1. **Query span traces** — Chrome trace-event JSON (trace_json.hh)
 *     of a deterministic hash-sampled subset of queries, viewable in
 *     Perfetto or chrome://tracing. Sampling is a pure function of
 *     (query index, seed), so the set of traced queries — and the
 *     emitted bytes — are identical at any DRS_THREADS value.
 *  2. **Windowed time-series metrics** — a MetricRegistry
 *     (metrics.hh) the driver updates in event order and snapshots on
 *     its control-tick cadence.
 *  3. **Latency attribution** — every measured query's latency split
 *     into queue / service / network / join-wait along its leader
 *     critical path, aggregated into a cluster-level StageSplit (the
 *     paper's Figure-6-style where-did-the-time-go decomposition).
 *
 * Attribution semantics: *queue* is admission-to-first-service of the
 * leader part plus the join phase; *service* is first-service-to-done
 * of the same; *network* is the forward and return router hops;
 * *join wait* is the time the leader critical path spent waiting on
 * remote fan-out parts (their queue/service/embedding-hop time is
 * inside it — it is the price of fan-out as seen by the query).
 * Remote parts' own queue/service times additionally feed the
 * `queue_wait_ms` / `service_ms` histograms.
 *
 * Disabled by default: drivers keep a null observer pointer and
 * guard every hook behind one pointer test. bench/perf_engine times
 * two null-observer runs of one workload in interleaved pairs and
 * fails past 1% apart: the gate bounds host noise between identical
 * runs, not the disabled path's own cost (docs/OBSERVABILITY.md).
 *
 * Ownership: the observer owns its products and keeps no per-query
 * state. A driver stamps each query's dispatch and leader part times
 * on its own query record (QueryStamps) and hands them over at
 * completion. One observer per run — attach a fresh one to reproduce
 * a run. Not thread-safe (a single simulation run is single-threaded;
 * parallel sweeps use one observer per observed run).
 */

#ifndef DRS_OBS_OBSERVER_HH
#define DRS_OBS_OBSERVER_HH

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace_json.hh"

namespace deeprecsys::obs {

/**
 * How a RunObserver samples. An attached observer always records all
 * three products (spans, metrics, attribution); only the share of
 * queries that get spans is set here.
 */
struct ObsConfig
{
    /**
     * Fraction of queries span-traced, in [0, 1]. Sampling is by
     * deterministic hash of the query index: the same queries are
     * traced in every run of the same trace at any thread count.
     */
    double spanSampleRate = 1.0;

    /** Seed of the span-sampling hash (fixed). */
    static constexpr uint64_t spanSeed = 0x9e3779b97f4a7c15ULL;

    /** Spans for @p sample_rate of the queries. */
    static ObsConfig
    full(double sample_rate = 1.0)
    {
        ObsConfig cfg;
        cfg.spanSampleRate = sample_rate;
        return cfg;
    }
};

/** When a finished part was admitted, first served and done; -1
 *  until a part is stamped. */
struct PartTimes
{
    double start = -1;
    double first = -1;
    double end = -1;

    /** The times of a part admitted at @p start_s, first served at
     *  @p first_service_s and done at @p end_s. */
    static PartTimes
    of(double start_s, double first_service_s, double end_s)
    {
        // A part admitted to an idle machine serves immediately; guard
        // the bookkeeping default for robustness.
        return {start_s, std::clamp(first_service_s, start_s, end_s),
                end_s};
    }
};

/**
 * A query's span stamps, kept by the driver on its own query record
 * while an observer is attached. Every finished leader part stamps
 * them, a part of a dispatch that failed over included, and a new
 * dispatch keeps the old part stamps until its own leader finishes.
 */
struct QueryStamps
{
    double dispatch = 0;   ///< when the router last dispatched it
    PartTimes leader;      ///< the leader's whole or embedding part
    PartTimes join;        ///< the leader's join (dense) phase
};

/**
 * Cluster-level latency attribution: summed stage seconds over
 * measured queries (see the file comment for bucket semantics).
 */
struct StageSplit
{
    double queueSeconds = 0;
    double serviceSeconds = 0;
    double networkSeconds = 0;
    double joinWaitSeconds = 0;
    double totalSeconds = 0;
    uint64_t queries = 0;

    /** Share of total latency spent in @p stage_seconds, in [0, 1]. */
    double
    fraction(double stage_seconds) const
    {
        return totalSeconds > 0.0 ? stage_seconds / totalSeconds : 0.0;
    }

    /** Mean per-query milliseconds of @p stage_seconds. */
    double
    meanMs(double stage_seconds) const
    {
        return queries > 0
            ? stage_seconds * 1e3 / static_cast<double>(queries)
            : 0.0;
    }
};

/**
 * Deterministic hash-based sampling decision: true when @p idx is in
 * the sampled fraction @p rate under @p seed (pure function).
 */
bool sampledIndex(uint64_t idx, double rate, uint64_t seed);

/** Per-run observability recorder; see the file comment. */
class RunObserver
{
  public:
    /**
     * @param config what to record
     * @param num_machines machines of the observed tier (names the
     *        trace processes; 1 for a single-machine run)
     */
    RunObserver(ObsConfig config, size_t num_machines);

    /** True when query @p idx is span-traced this run. */
    bool
    sampledQuery(uint64_t idx) const
    {
        return sampledIndex(idx, cfg_.spanSampleRate, cfg_.spanSeed);
    }

    // ------------------------------------------------- driver hooks
    /**
     * The run begins: @p t0 is the trace origin (subtracted from all
     * trace timestamps).
     */
    void onRunStart(double t0) { writer_.setOrigin(t0); }

    /** The router dispatched a query of @p size candidates. */
    void onQueryDispatch(uint32_t size);

    /**
     * A part of query @p idx finished on @p machine at @p times;
     * @p gpu marks accelerator service.
     */
    void onPartDone(uint64_t idx, uint32_t machine, bool gpu,
                    const PartTimes& times);

    /**
     * Query @p idx completed at @p completion_s with @p stamps from
     * its driver. Its last dispatch sent @p fanout parts of @p size
     * candidates over a @p forward_s one-way forward hop; @p back_s is
     * the one-way return hop its final part paid, and @p measured
     * follows the warmup rule.
     */
    void onQueryComplete(uint64_t idx, const QueryStamps& stamps,
                         uint32_t size, uint32_t fanout, bool measured,
                         double forward_s, double completion_s,
                         double back_s);

    /**
     * The router shed query @p idx (size @p size) at @p t_s — it
     * never reached a machine. Counted under `queries_dropped`; when
     * the query is span-sampled an instant event marks the drop.
     */
    void onQueryDrop(uint64_t idx, double t_s, uint32_t size);

    /**
     * The router admitted query @p idx degraded at @p t_s:
     * @p served_size of the original @p orig_size candidates will be
     * scored. Counted under `queries_degraded`; when span-sampled an
     * instant event carries both sizes.
     */
    void onQueryDegrade(uint64_t idx, double t_s, uint32_t orig_size,
                        uint32_t served_size);

    /**
     * The router shed query @p idx at @p t_s but the client will
     * re-present it (attempt @p attempt, 1-based) after @p delay_s of
     * jittered backoff. Counted under `queries_retried`; when
     * span-sampled an instant event carries the schedule. Final drops
     * go through onQueryDrop instead, so the two counters partition
     * refusals.
     */
    void onQueryRetry(uint64_t idx, double t_s, uint32_t attempt,
                      double delay_s);

    /** Shard-aware routing touched these tables (per-table load). */
    void onTablesTouched(const std::vector<uint32_t>& tables);

    // ------------------------------------------------- fault hooks
    /** Machine @p machine crashed (or was fault-injected down) at
     *  @p t_s. Counted under `machines_crashed`; always emitted as a
     *  `machine_down` instant when tracing (not query-sampled — an
     *  outage is fleet state, not query state). */
    void onMachineDown(uint32_t machine, double t_s);

    /** Machine @p machine rejoined service at @p t_s (counter
     *  `machines_recovered`, instant `machine_up`). */
    void onMachineUp(uint32_t machine, double t_s);

    /** The router hedged a straggling part of query @p idx at @p t_s:
     *  a duplicate was issued on @p to_machine to race the original on
     *  @p from_machine (counter `parts_hedged`, instant `hedge`). */
    void onPartHedged(uint64_t idx, double t_s, uint32_t from_machine,
                      uint32_t to_machine);

    /** Query @p idx was killed by a failure at @p t_s and will be
     *  re-presented (attempt @p attempt, 1-based) after @p delay_s
     *  (counter `queries_failover`, instant `failover`). */
    void onQueryFailover(uint64_t idx, double t_s, uint32_t attempt,
                         double delay_s);

    /** Query @p idx was destroyed by a failure at @p t_s with no
     *  failover budget left (counter `queries_lost`, instant `lost`). */
    void onQueryLost(uint64_t idx, double t_s);

    /** The elastic tier applied a scale decision (instant event). */
    void onScaleEvent(double t_s, size_t serving_before, size_t target,
                      size_t granted);

    // --------------------------------------------------- collectors
    /** The metric registry (drivers cache references off-tick). */
    MetricRegistry& metrics() { return registry_; }
    const MetricRegistry& metrics() const { return registry_; }

    /**
     * Take a metrics snapshot at @p t_s and extend the router-pid
     * counter tracks (`machines`, `utilization`, `window_p99_ms`) from
     * the same-named gauges if present.
     */
    void snapshot(double t_s);

    /** The aggregated latency attribution over measured queries. */
    const StageSplit& stageSplit() const { return split_; }

    /** Trace events recorded so far (sampled spans and counters). */
    size_t numTraceEvents() const { return writer_.numEvents(); }

    // ------------------------------------------------------- output
    /** Serialize the Chrome trace JSON. */
    void writeTrace(std::ostream& os) const { writer_.write(os); }

    /** Serialize the metrics time-series JSON. */
    void writeMetrics(std::ostream& os) const { registry_.writeJson(os); }

    /** Write the trace to @p path (false + warning on I/O failure). */
    bool writeTraceFile(const std::string& path) const;

  private:
    ObsConfig cfg_;
    size_t numMachines_;
    TraceEventWriter writer_;
    MetricRegistry registry_;
    StageSplit split_;

    // Cached hot-path metric handles (built on first use).
    WindowHistogram* queueWaitMs_ = nullptr;
    WindowHistogram* serviceMs_ = nullptr;
    WindowHistogram* querySize_ = nullptr;
    std::vector<Counter*> tableLoad_;
};

} // namespace deeprecsys::obs

#endif // DRS_OBS_OBSERVER_HH
