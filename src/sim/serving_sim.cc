#include "serving_sim.hh"

#include <algorithm>

#include "base/logging.hh"

namespace deeprecsys {

ServingSimulator::ServingSimulator(SimConfig config)
    : cfg(std::move(config))
{
    MachineEngine::validate(cfg);
}

SimResult
ServingSimulator::run(const QueryTrace& trace)
{
    SimResult result;
    if (trace.empty())
        return result;

    const size_t warmup = warmupCount(trace.size());
    result.queryLatencySeconds.reserve(trace.size() - warmup);

    MachineEngine engine(&cfg);
    EventQueue events;
    // Pre-size the heap: in-flight completions are bounded by the
    // core pool plus queued offloads, far under one event per query.
    events.reserve(std::min<size_t>(trace.size(),
                                    cfg.cores() + 64));
    std::vector<EngineEvent> scheduled;
    scheduled.reserve(cfg.cores() + 8);

    MeasuredSpan span;
    double lastEventTime = trace.front().arrivalSeconds;

    auto complete_query = [&](uint64_t idx, double now) {
        if (idx >= warmup) {
            result.queryLatencySeconds.add(now - trace[idx].arrivalSeconds);
            span.onCompletion(now);
        }
    };

    size_t nextArrival = 0;
    while (nextArrival < trace.size() || !events.empty()) {
        // Pick the earlier of next arrival / next completion; arrivals
        // win ties so routing decisions precede same-instant service.
        const bool haveArrival = nextArrival < trace.size();
        const bool takeArrival = haveArrival &&
            (events.empty() ||
             trace[nextArrival].arrivalSeconds <= events.top().time);

        if (takeArrival) {
            const Query& in = trace[nextArrival];
            drs_assert(nextArrival == 0 ||
                           in.arrivalSeconds >=
                               trace[nextArrival - 1].arrivalSeconds,
                       "trace must be sorted by arrival");
            lastEventTime = std::max(lastEventTime, in.arrivalSeconds);

            const bool measured = nextArrival >= warmup;
            if (measured)
                span.onArrival(in.arrivalSeconds);

            scheduled.clear();
            engine.admit({.partIdx = nextArrival, .samples = in.size},
                         in.arrivalSeconds, scheduled);
            events.pushAll(scheduled, 0);
            nextArrival++;
            continue;
        }

        const SimEvent ev = events.pop();
        lastEventTime = std::max(lastEventTime, ev.time);
        scheduled.clear();
        if (ev.kind == SimEvent::Kind::CpuRequest) {
            if (engine.cpuRequestDone(ev.slot, ev.partIdx, ev.time,
                                      scheduled))
                complete_query(ev.partIdx, ev.time);
        } else {
            engine.gpuQueryDone(ev.slot, ev.partIdx, ev.time, scheduled);
            complete_query(ev.partIdx, ev.time);
        }
        events.pushAll(scheduled, 0);
    }

    result.numQueries = result.queryLatencySeconds.count();
    result.numRequests = engine.requestsDispatched();
    result.spanSeconds = span.seconds();
    result.offeredQps = traceOfferedQps(trace);
    result.achievedQps = span.achievedQps(result.numQueries);
    result.cpuBusyCoreSeconds = engine.busyCoreSeconds();
    result.gpuBusySeconds = engine.gpuBusySeconds();
    const double full_span = lastEventTime - trace.front().arrivalSeconds;
    if (full_span > 0.0) {
        const double cores =
            static_cast<double>(cfg.cores());
        result.cpuUtilization =
            result.cpuBusyCoreSeconds / (full_span * cores);
        result.gpuUtilization = result.gpuBusySeconds / full_span;
    }
    result.gpuWorkFraction = engine.totalSamples() > 0.0
        ? engine.gpuSamples() / engine.totalSamples()
        : 0.0;
    return result;
}

} // namespace deeprecsys
