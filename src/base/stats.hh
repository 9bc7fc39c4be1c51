/**
 * @file
 * Summary statistics and exact percentile tracking.
 *
 * Tail latency is the central metric of the paper (p95/p99 under SLA),
 * so percentiles here are computed exactly from retained samples rather
 * than from a sketch; experiment sample counts (1e4-1e6) make this
 * affordable and removes approximation error from the reproduction.
 */

#ifndef DRS_BASE_STATS_HH
#define DRS_BASE_STATS_HH

#include <cstddef>
#include <string>
#include <vector>

namespace deeprecsys {

/**
 * Accumulates scalar samples and answers mean / percentile queries.
 * Samples are retained in insertion order and never reordered: a
 * percentile selects its order statistics from a scratch copy, so
 * reads are const in fact, and safe from many threads at once.
 */
class SampleStats
{
  public:
    SampleStats() = default;

    /** Pre-allocate capacity for an expected number of samples. */
    explicit SampleStats(size_t expected) { samples.reserve(expected); }

    /** Pre-allocate capacity for an expected number of samples. */
    void reserve(size_t expected) { samples.reserve(expected); }

    /** Record one sample. */
    void add(double value);

    /**
     * Record many samples: reserves once and bulk-appends (callers
     * merge whole latency vectors per simulation, so the per-element
     * growth checks of add() would dominate).
     */
    void addAll(const std::vector<double>& values);

    /** Number of recorded samples. */
    size_t count() const { return samples.size(); }

    /** True when no samples have been recorded. */
    bool empty() const { return samples.empty(); }

    /** Arithmetic mean; 0 when empty. */
    double mean() const;

    /** Sum of all samples. */
    double sum() const { return total; }

    /**
     * Exact percentile by linear interpolation between closest ranks:
     * the order statistics at floor(rank) and the one above it, for
     * rank = p / 100 * (count - 1) — bitwise what a full sort gives.
     * @param p percentile in [0, 100].
     */
    double percentile(double p) const;

    /** Shorthand for common tail percentiles. */
    double p50() const { return percentile(50.0); }
    double p75() const { return percentile(75.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }

    /** Drop all recorded samples. */
    void clear();

    /** Read-only access to raw samples (unsorted insertion order). */
    const std::vector<double>& raw() const { return samples; }

  private:
    std::vector<double> samples;
    double total = 0.0;
};

} // namespace deeprecsys

#endif // DRS_BASE_STATS_HH
