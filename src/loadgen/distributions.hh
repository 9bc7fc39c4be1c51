/**
 * @file
 * Query arrival processes and working-set-size distributions
 * (paper Section III-C, Figure 5).
 *
 * Arrivals follow a Poisson process as observed in production; sizes
 * follow a heavy-tailed distribution (lognormal body + Pareto tail)
 * whose top quartile carries roughly half the total work, the property
 * Figure 6 builds on. Normal and lognormal alternatives are provided
 * for the ablations of Figure 12a.
 *
 * Units: all times are **seconds** (gaps, profile periods, absolute
 * stamps); rates are queries per second; query sizes are candidate
 * samples. Ownership: every type here is a self-contained value — the
 * samplers own their Rng streams and keep no references to caller
 * data. Determinism: a sampler's draw sequence is a pure function of
 * its constructor arguments (kind, parameters, 64-bit seed), and
 * DiurnalProfile holds no random state at all, so equal configs
 * reproduce every trace bit-for-bit on every platform.
 */

#ifndef DRS_LOADGEN_DISTRIBUTIONS_HH
#define DRS_LOADGEN_DISTRIBUTIONS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "base/random.hh"

namespace deeprecsys {

/**
 * Generates the exponential inter-arrival gaps of a Poisson process
 * at a target average rate. Owns its random stream: two processes
 * with equal (qps, seed) emit the same gap sequence, and a gap is
 * priced as gap(1.0) / qps, which is what lets TraceTemplate re-time
 * one drawn population at any candidate rate bit-identically.
 */
class ArrivalProcess
{
  public:
    /**
     * @param qps average queries per second (> 0)
     * @param seed deterministic stream seed
     */
    ArrivalProcess(double qps, uint64_t seed);

    /** Seconds until the next arrival. */
    double nextGap();

    /** The configured average rate. */
    double qps() const { return rate; }

  private:
    double rate;
    Rng rng;
};

/** Query working-set-size distribution families. */
enum class SizeDistKind { Production, Lognormal, Normal };

/** Name for printing. */
const char* sizeDistName(SizeDistKind kind);

/**
 * Samples query sizes in [1, maxSize] (candidate samples per query).
 *
 * The production distribution mixes a lognormal body with a Pareto
 * tail (20% tail weight, shape 1.3) clipped at maxSize = 1000, giving
 * the heavier-than-lognormal tail of Figure 5. Owns its Rng: the
 * sample sequence is a pure function of (kind, parameters, seed), and
 * the size stream is kept independent of the arrival stream so rate
 * sweeps re-time the same query population (see LoadSpec's two
 * seeds).
 */
class QuerySizeDistribution
{
  public:
    /** Production heavy-tail distribution (Figure 5, default). */
    static QuerySizeDistribution production(uint64_t seed);

    /** Canonical lognormal comparison (same body as production). */
    static QuerySizeDistribution lognormal(uint64_t seed);

    /** Normal(mean, stddev) clipped to [1, maxSize]. */
    static QuerySizeDistribution normal(uint64_t seed, double mean = 140.0,
                                        double stddev = 60.0);

    /** Build by kind with default parameters. */
    static QuerySizeDistribution byKind(SizeDistKind kind, uint64_t seed);

    /** Draw one query size. */
    uint32_t sample();

    /** The distribution family. */
    SizeDistKind kind() const { return kind_; }

    /** Largest size this distribution can emit. */
    static constexpr uint32_t maxSize = 1000;

  private:
    QuerySizeDistribution(SizeDistKind kind, uint64_t seed, double a,
                          double b);

    SizeDistKind kind_;
    Rng rng;
    double paramA;  ///< mu / mean
    double paramB;  ///< sigma / stddev
};

/**
 * Diurnal traffic profile: a sinusoidal load swing around the mean
 * rate, used by the fleet experiments (Figure 13) and the elastic
 * cluster tier (cluster/autoscaler.hh). The multiplier starts at 1.0
 * (the mean) at t = 0, peaks at a quarter period, and bottoms out at
 * three quarters; it averages exactly 1.0 over any whole period, so
 * modulating a mean rate by it preserves the day's total traffic.
 *
 * Units: all times in **seconds**; the multiplier and peak/trough
 * ratio are dimensionless. Ownership: a plain value type (two
 * doubles), freely copyable. Determinism: holds no random state —
 * multiplier() and cumulativeSeconds() are pure functions, equal on
 * every platform for equal configs.
 */
class DiurnalProfile
{
  public:
    /**
     * @param peak_to_trough ratio of the busiest to the quietest
     *        moment of the cycle (>= 1; 1.0 degenerates to constant
     *        load)
     * @param period_seconds length of one cycle (default 24 h)
     */
    explicit DiurnalProfile(double peak_to_trough = 2.0,
                            double period_seconds = 86400.0);

    /** Rate multiplier (mean 1.0 over a period) at an absolute time. */
    double multiplier(double t_seconds) const;

    /**
     * Integral of multiplier() over [0, t]: the expected arrivals by
     * time @p t_seconds per unit of mean rate. Strictly increasing in
     * t (the multiplier is positive), which is what lets diurnal
     * re-timing invert it (TraceTemplate::materializeDiurnal).
     */
    double cumulativeSeconds(double t_seconds) const;

    /** The configured busiest-to-quietest ratio (>= 1). */
    double
    peakToTrough() const
    {
        return (1.0 + amplitude) / (1.0 - amplitude);
    }

    /** Swing amplitude around the mean, in [0, 1). */
    double swingAmplitude() const { return amplitude; }

    /** Length of one cycle in seconds. */
    double periodSeconds() const { return period; }

  private:
    double amplitude;
    double period;
};

} // namespace deeprecsys

#endif // DRS_LOADGEN_DISTRIBUTIONS_HH
