#include "fleet.hh"

#include <cmath>

#include "base/logging.hh"
#include "base/random.hh"
#include "loadgen/distributions.hh"
#include "loadgen/query_stream.hh"

namespace deeprecsys {

namespace {

/** Length of the simulated diurnal cycle in seconds (24 h); the
 *  windows span exactly one cycle. */
constexpr double kDiurnalPeriodSeconds = 86400.0;

} // namespace

SampleStats
FleetResult::subsample(const std::vector<size_t>& machines) const
{
    SampleStats pooled;
    for (size_t m : machines) {
        drs_assert(m < perMachine.size(), "machine index out of range");
        pooled.addAll(perMachine[m].raw());
    }
    return pooled;
}

FleetSimulator::FleetSimulator(SimConfig base_in, FleetConfig cfg_in)
    : base(std::move(base_in)), cfg(std::move(cfg_in))
{
    if (cfg.numMachines < 1)
        drs_fatal("fleet needs machines");
    if (cfg.numWindows < 1)
        drs_fatal("fleet needs at least one window");
}

FleetResult
FleetSimulator::run() const
{
    FleetResult result;
    result.perMachine.resize(cfg.numMachines);
    Rng fleet_rng(cfg.seed);
    const DiurnalProfile diurnal(cfg.diurnalPeakToTrough,
                                 kDiurnalPeriodSeconds);

    // Persistent machine heterogeneity: each machine forks its own
    // stream for its lognormal speed and per-window interference draws.
    std::vector<Rng> machine_rngs;
    machine_rngs.reserve(cfg.numMachines);
    std::vector<double> speed(cfg.numMachines);
    for (size_t m = 0; m < cfg.numMachines; m++) {
        machine_rngs.push_back(fleet_rng.fork());
        speed[m] = std::exp(machine_rngs[m].normal(0.0, cfg.speedSigma));
    }
    Rng window_rng = fleet_rng.fork();

    for (size_t w = 0; w < cfg.numWindows; w++) {
        // Window position in the (simulated) day drives the diurnal
        // rate swing of the *global* stream.
        const double t_frac = cfg.numWindows > 1
            ? static_cast<double>(w) / static_cast<double>(cfg.numWindows)
            : 0.25;
        const double per_machine_rate = cfg.perMachineQps *
            diurnal.multiplier(t_frac * kDiurnalPeriodSeconds);

        // One global stream per window, dealt round-robin: query i
        // lands on machine i % numMachines. The split smooths each
        // machine's arrivals relative to independent Poisson streams
        // (Erlang-N gaps).
        LoadSpec load;
        load.qps = per_machine_rate *
            static_cast<double>(cfg.numMachines);
        load.arrivalSeed = window_rng();
        load.sizeSeed = window_rng();
        // A third draw per window is discarded: dropping it would
        // shift every later window's seeds and move fig13's figures.
        (void)window_rng();
        QueryStream stream(load);
        const QueryTrace global =
            stream.generate(cfg.queriesPerWindow * cfg.numMachines);
        std::vector<QueryTrace> slices(cfg.numMachines);
        for (size_t i = 0; i < global.size(); i++)
            slices[i % cfg.numMachines].push_back(global[i]);

        for (size_t m = 0; m < cfg.numMachines; m++) {
            // Persistent speed x this window's interference draw.
            SimConfig machine = base;
            machine.slowdown = 1.0 / speed[m];
            if (machine_rngs[m].uniform() < cfg.interferenceProb)
                machine.slowdown *= cfg.interferenceSlowdown;

            const SimResult r = ServingSimulator(machine).run(slices[m]);
            result.perMachine[m].addAll(r.queryLatencySeconds.raw());
            result.fleetLatency.addAll(r.queryLatencySeconds.raw());
        }
    }
    return result;
}

} // namespace deeprecsys
