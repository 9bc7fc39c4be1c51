#include "qps_search.hh"

#include <utility>

namespace deeprecsys {

SimResult
evaluateAtQps(const SimConfig& sim, const LoadSpec& load, double qps,
              size_t num_queries)
{
    LoadSpec spec = load;
    spec.qps = qps;
    QueryStream stream(spec);
    const QueryTrace trace = stream.generate(num_queries);
    ServingSimulator simulator(sim);
    return simulator.run(trace);
}

QpsSearchResult
findMaxQps(const SimConfig& sim, const QpsSearchSpec& spec)
{
    validateSla(spec.slaMs, spec.percentile);

    // The query population is drawn once; every candidate rate only
    // re-times it (bit-identical to regenerating the trace per rate).
    TraceTemplate trace_template(spec.load);
    trace_template.ensure(spec.numQueries);

    auto eval = [&](double qps) -> std::pair<SimResult, bool> {
        const QueryTrace trace =
            trace_template.materialize(qps, spec.numQueries);
        ServingSimulator simulator(sim);
        SimResult r = simulator.run(trace);
        const bool meets = r.tailMs(spec.percentile) <= spec.slaMs;
        return {std::move(r), meets};
    };

    const RateSearchKnobs knobs{.qpsFloor = 0.5,
                                .qpsCeiling = 2e6,
                                .relTolerance = 0.02,
                                .growthStart = 64.0};

    return findMaxRateUnderSla<SimResult>(eval, knobs);
}

} // namespace deeprecsys
