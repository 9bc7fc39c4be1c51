/**
 * @file
 * Datacenter fleet simulator (paper Sections III-D and VI-B).
 *
 * Hundreds of serving machines receive slices of the global query
 * stream. Machines are heterogeneous: each gets a persistent speed
 * multiplier (silicon/provisioning variation) and occasional
 * co-runner interference windows. Figure 7 compares the latency
 * distribution of the whole fleet against a small subsample; Figure 13
 * measures p95/p99 across the fleet over a diurnal day of traffic for
 * a fixed versus tuned batch size.
 *
 * This is cluster-tier code (it spreads one global stream across
 * machines) and lives in cluster/ accordingly; it differs from
 * ClusterSimulator in simulating each machine *independently* from a
 * statically split trace: each window's stream is dealt round-robin
 * (query i to machine i % numMachines), which scales to hundreds of
 * machines but cannot model queue-aware routing. It is a driver, not
 * an engine: each machine runs a ServingSimulator and therefore the
 * shared MachineEngine (sim/machine_engine.hh), so its per-machine
 * mechanics cannot diverge from the live cluster simulator's.
 *
 * The windows span one fixed 24-hour diurnal cycle. The fleet tier
 * takes no RunObserver: its per-machine window runs overlap in time,
 * so spans and a pooled stage split belong to the live drivers.
 *
 * Units: seconds in the samples, milliseconds from tailMs(). Fully
 * deterministic for a fixed FleetConfig::seed: machine speeds,
 * interference windows and per-window traffic all derive from forks
 * of that one stream.
 */

#ifndef DRS_CLUSTER_FLEET_HH
#define DRS_CLUSTER_FLEET_HH

#include <vector>

#include "base/stats.hh"
#include "sim/serving_sim.hh"

namespace deeprecsys {

/**
 * Configuration of a simulated fleet. Every query is a Poisson
 * arrival with a production-distribution size (the LoadSpec
 * defaults); the rate follows perMachineQps and the diurnal swing.
 */
struct FleetConfig
{
    size_t numMachines = 200;
    /** Lognormal sigma of the per-machine speed multiplier. */
    double speedSigma = 0.06;
    /** Probability a machine runs with a co-runner in a window. */
    double interferenceProb = 0.15;
    /** Slowdown multiplier while interfered. */
    double interferenceSlowdown = 1.30;
    /** Per-machine offered load (QPS). */
    double perMachineQps = 100.0;
    /** Queries per machine per traffic window. */
    size_t queriesPerWindow = 1500;
    /** Number of traffic windows (24 = hourly day simulation). */
    size_t numWindows = 1;

    /**
     * Diurnal peak-to-trough load ratio across windows
     * (dimensionless, >= 1; 1.0 = flat load). Window w of numWindows
     * samples a 24-hour profile at fraction w/numWindows of the day.
     */
    double diurnalPeakToTrough = 1.0;
    uint64_t seed = 1234;
};

/** Latency outcome of one fleet run. */
struct FleetResult
{
    SampleStats fleetLatency;               ///< all machines pooled
    std::vector<SampleStats> perMachine;    ///< per-machine samples

    /** Pooled latency of a machine subset (for Figure 7). */
    SampleStats subsample(const std::vector<size_t>& machines) const;

    /** Fleet-wide percentile in milliseconds. */
    double
    tailMs(double pct) const
    {
        return fleetLatency.percentile(pct) * 1e3;
    }
};

/** Simulates every machine of the fleet independently. */
class FleetSimulator
{
  public:
    /**
     * @param base single-machine configuration (slowdown overridden)
     * @param cfg fleet shape and heterogeneity parameters
     */
    FleetSimulator(SimConfig base, FleetConfig cfg);

    /** Run all machines over all traffic windows. */
    FleetResult run() const;

  private:
    SimConfig base;
    FleetConfig cfg;
};

} // namespace deeprecsys

#endif // DRS_CLUSTER_FLEET_HH
