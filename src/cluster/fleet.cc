#include "fleet.hh"

#include <cmath>

#include "base/logging.hh"
#include "base/random.hh"
#include "cluster/routing_policy.hh"
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
    drs_assert(cfg.numMachines >= 1, "fleet needs machines");
    drs_assert(cfg.numWindows >= 1, "fleet needs at least one window");
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

    double util_sum = 0.0;
    size_t util_count = 0;

    for (size_t w = 0; w < cfg.numWindows; w++) {
        // Window position in the (simulated) day drives the diurnal
        // rate swing of the *global* stream.
        const double t_frac = cfg.numWindows > 1
            ? static_cast<double>(w) / static_cast<double>(cfg.numWindows)
            : 0.25;
        const double per_machine_rate = cfg.perMachineQps *
            diurnal.multiplier(t_frac * kDiurnalPeriodSeconds);

        // One global stream per window, split across machines by the
        // cluster router. The default round-robin split smooths each
        // machine's arrivals relative to the historical independent
        // Poisson streams (Erlang-N gaps); cfg.routing selects
        // uniform-random when Poisson thinning is wanted instead.
        LoadSpec load = cfg.load;
        load.qps = per_machine_rate *
            static_cast<double>(cfg.numMachines);
        load.arrivalSeed = window_rng();
        load.sizeSeed = window_rng();
        QueryStream stream(load);
        const QueryTrace global =
            stream.generate(cfg.queriesPerWindow * cfg.numMachines);

        // This window's effective machine speeds (persistent speed x
        // interference) feed the router, so speed-aware routing kinds
        // see the fleet's heterogeneity.
        std::vector<double> slowdown(cfg.numMachines);
        std::vector<BackendAttrs> attrs(cfg.numMachines);
        for (size_t m = 0; m < cfg.numMachines; m++) {
            slowdown[m] = 1.0 / speed[m];
            if (machine_rngs[m].uniform() < cfg.interferenceProb)
                slowdown[m] *= cfg.interferenceSlowdown;
            attrs[m].speedFactor = 1.0 / slowdown[m];
            attrs[m].hasGpu = base.policy.gpuEnabled &&
                base.gpu.has_value();
        }

        RoutingSpec routing;
        routing.kind = cfg.routing;
        routing.seed = window_rng();
        const std::unique_ptr<RoutingPolicy> policy =
            makeRoutingPolicy(routing);
        const std::vector<QueryTrace> slices =
            splitTrace(global, attrs, *policy);

        for (size_t m = 0; m < cfg.numMachines; m++) {
            SimConfig machine = base;
            machine.slowdown = slowdown[m];

            const SimResult r = ServingSimulator(machine).run(slices[m]);
            result.perMachine[m].addAll(r.queryLatencySeconds.raw());
            result.fleetLatency.addAll(r.queryLatencySeconds.raw());
            util_sum += r.cpuUtilization;
            util_count++;
        }
    }
    if (util_count > 0)
        result.meanCpuUtilization = util_sum / double(util_count);
    return result;
}

} // namespace deeprecsys
