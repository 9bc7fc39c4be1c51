/**
 * @file
 * Windowed time-series metrics for in-run observability.
 *
 * End-of-run aggregates (SampleStats, MachineStats) collapse a whole
 * diurnal day into one p99; the questions operators actually ask —
 * *when* did the fleet degrade, which window crossed the queueing
 * knee — need signals over time. A MetricRegistry holds named
 * counters, gauges, and histograms that a driver updates while the
 * simulation runs and snapshots on its control-tick cadence; the
 * registry keeps one point per metric per snapshot and dumps the
 * whole time series as JSON for downstream plotting.
 *
 * Semantics per metric kind:
 *
 *  - **Counter**: monotonically non-decreasing event count; snapshots
 *    record the cumulative value (windowed rates are first
 *    differences, left to the consumer).
 *  - **Gauge**: last-written instantaneous reading (machine count,
 *    utilization, windowed tail).
 *  - **WindowHistogram**: fixed-bin linear histogram over [lo, hi);
 *    out-of-range samples clamp to the edge bins so mass is never
 *    silently dropped. Snapshots record the bin counts of the window
 *    *since the previous snapshot* and reset the bins — the windowed
 *    form of the time series.
 *
 * Metrics registered after snapshots have already been taken are
 * back-filled with zero points so every series stays aligned with the
 * snapshot-time axis. References returned by the registry are stable
 * for its lifetime (drivers cache them off the hot path).
 *
 * Determinism: the registry is plain single-threaded value state; a
 * run updates it in event order, so equal runs serialize bit-identical
 * JSON at any DRS_THREADS value.
 */

#ifndef DRS_OBS_METRICS_HH
#define DRS_OBS_METRICS_HH

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace deeprecsys::obs {

/** Monotonically non-decreasing event count. */
class Counter
{
  public:
    /** Count @p delta more events. */
    void add(uint64_t delta = 1) { value_ += delta; }

    /** Cumulative count so far. */
    uint64_t value() const { return value_; }

  private:
    uint64_t value_ = 0;
};

/** Last-written instantaneous reading. */
class Gauge
{
  public:
    /** Overwrite the reading. */
    void set(double value) { value_ = value; }

    /** Current reading (0 until first set). */
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * Fixed-bin linear histogram over [lo, hi) whose bins are reset at
 * every registry snapshot (per-window counts). Out-of-range samples
 * clamp to the first/last bin.
 */
class WindowHistogram
{
  public:
    WindowHistogram(double lo, double hi, size_t num_bins);

    /** Record one sample (clamping to the edge bins). */
    void add(double value);

    /** Count in @p bin since the last snapshot. */
    uint64_t binCount(size_t bin) const { return counts_[bin]; }

    /** Samples since the last snapshot. */
    uint64_t windowCount() const { return total_; }

    size_t numBins() const { return counts_.size(); }
    double lo() const { return lo_; }
    double hi() const { return hi_; }

    /** Zero every bin (the registry calls this after snapshotting). */
    void reset();

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<uint64_t> counts_;
    uint64_t total_ = 0;
};

/**
 * Named metrics plus their snapshot time series. Lookup by name
 * creates on first use; series are serialized in registration order
 * (deterministic output). Not thread-safe — one registry per run.
 */
class MetricRegistry
{
  public:
    /** The counter named @p name (registered on first use). */
    Counter& counter(const std::string& name);

    /** The gauge named @p name (registered on first use). */
    Gauge& gauge(const std::string& name);

    /**
     * The histogram named @p name. The range/bin shape is fixed by
     * the first call; later calls return the existing histogram and
     * ignore the shape arguments.
     */
    WindowHistogram& histogram(const std::string& name, double lo,
                               double hi, size_t num_bins);

    /**
     * Record one point per registered metric at time @p t (seconds on
     * the run's trace clock; must be monotone). Histograms reset
     * their window after the point is taken.
     */
    void snapshot(double t);

    /** Snapshot times taken so far, in order. */
    const std::vector<double>& snapshotTimes() const { return times_; }

    /** Number of snapshots taken. */
    size_t numSnapshots() const { return times_.size(); }

    /** Recorded points of the gauge named @p name (empty if absent). */
    std::vector<double> gaugePoints(const std::string& name) const;

    /**
     * Serialize the whole time series as one JSON object:
     * `{"snapshots_s": [...], "metrics": [{"name", "type",
     * "points"}...]}` with histogram entries carrying their bin shape
     * and per-snapshot bin-count arrays. Deterministic: registration
     * order, fixed number formatting.
     */
    void writeJson(std::ostream& os) const;

  private:
    template <typename Metric, typename Point>
    struct Series
    {
        std::string name;
        Metric metric;
        std::vector<Point> points;
    };

    // Deques: lookup returns references that must survive later
    // registrations.
    std::deque<Series<Counter, uint64_t>> counters_;
    std::deque<Series<Gauge, double>> gauges_;
    std::deque<Series<WindowHistogram, std::vector<uint64_t>>> hists_;
    std::unordered_map<std::string, size_t> counterIndex_;
    std::unordered_map<std::string, size_t> gaugeIndex_;
    std::unordered_map<std::string, size_t> histIndex_;
    std::vector<double> times_;
};

} // namespace deeprecsys::obs

#endif // DRS_OBS_METRICS_HH
