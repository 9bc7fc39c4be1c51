#include "machine_engine.hh"

#include <algorithm>

#include "base/logging.hh"

namespace deeprecsys {

MachineEngine::MachineEngine(const SimConfig* config) : cfg(config)
{
    drs_assert(cfg != nullptr, "engine needs a machine config");
    validate(*cfg);
}

void
MachineEngine::validate(const SimConfig& config)
{
    if (config.bindings.empty())
        drs_fatal("a machine needs at least one model binding");
    if (!(config.slowdown > 0.0))
        drs_fatal("slowdown must be positive");
    for (size_t k = 0; k < config.bindings.size(); k++) {
        const ModelService& binding = config.bindings[k];
        if (binding.policy.perRequestBatch < 1)
            drs_fatal("binding ", k, ": per-request batch must be >= 1");
        if (binding.policy.gpuEnabled && !binding.gpu.has_value())
            drs_fatal("binding ", k, ": GPU policy without a GPU model");
        // Every binding shares this machine's physical core pool.
        if (binding.cpu.platform().cores != config.cores())
            drs_fatal("binding ", k, ": platform core count differs from "
                      "the machine's");
    }
}

void
MachineEngine::advanceTo(double now)
{
    drs_assert(now >= lastEventTime, "engine clock must be monotone");
    busyCoreSeconds_ += static_cast<double>(busyCores_) *
                        (now - lastEventTime);
    if (gpuBusy)
        gpuBusySeconds_ += now - lastEventTime;
    lastEventTime = now;
}

double
MachineEngine::busyCoreSecondsAt(double now) const
{
    drs_assert(now >= lastEventTime, "engine clock must be monotone");
    return busyCoreSeconds_ +
           static_cast<double>(busyCores_) * (now - lastEventTime);
}

void
MachineEngine::crash(double now, std::vector<uint64_t>& lost_parts)
{
    // Bill busy time up to the instant of death, then drop the world.
    advanceTo(now);
    for (const PartBook& book : slab) {
        if (book.active)
            lost_parts.push_back(book.part.partIdx);
    }
    slab.clear();
    freeSlots.clear();
    cpuQueue.clear();
    gpuQueue.clear();
    busyCores_ = 0;
    gpuBusy = false;
    queuedCostSeconds_ = 0;
    serviceFactor_ = 1.0;
    lastFinishedFirstStart_ = -1.0;
    epoch_++;
}

void
MachineEngine::setServiceFactor(double factor)
{
    drs_assert(factor > 0.0, "service factor must be positive");
    serviceFactor_ = factor;
}

MachineEngine::PartBook&
MachineEngine::bookAt(uint32_t slot, uint64_t part_idx)
{
    drs_assert(slot < slab.size() && slab[slot].active,
               "completion for unknown part");
    drs_assert(slab[slot].part.partIdx == part_idx,
               "completion for a recycled slot (stale event)");
    return slab[slot];
}

uint32_t
MachineEngine::allocSlot()
{
    if (!freeSlots.empty()) {
        const uint32_t slot = freeSlots.back();
        freeSlots.pop_back();
        return slot;
    }
    slab.emplace_back();
    return static_cast<uint32_t>(slab.size() - 1);
}

void
MachineEngine::freeSlot(uint32_t slot)
{
    slab[slot].active = false;
    freeSlots.push_back(slot);
}

double
SimConfig::serviceSeconds(const PartSpec& part, size_t batch, bool on_gpu,
                          size_t busy_cores) const
{
    const ModelService& binding = bindings[part.model];
    if (on_gpu)
        return binding.gpu->querySeconds(batch) * slowdown;
    return (part.whole
                ? binding.cpu.requestSeconds(batch, busy_cores)
                : binding.cpu.partialRequestSeconds(batch, busy_cores,
                                                    part.embFraction,
                                                    part.leader)) *
           slowdown;
}

double
MachineEngine::joinPhaseCostSeconds(uint32_t samples, uint32_t model) const
{
    drs_assert(samples >= 1, "join phase needs samples");
    drs_assert(cfg->servesModel(model), "join phase for an unserved model");
    const PartSpec phase{.samples = samples,
                         .embFraction = 0.0,
                         .leader = true,
                         .whole = false,
                         .model = model};
    double cost = 0.0;
    cfg->bindings[model].policy.forEachRequest(samples, [&](uint32_t take) {
        cost += cfg->serviceSeconds(phase, take, /*on_gpu=*/false,
                                    cfg->cores());
    });
    return cost;
}

void
MachineEngine::dispatchCpu(double now, std::vector<EngineEvent>& out)
{
    const size_t cores = cfg->cores();
    while (busyCores_ < cores && !cpuQueue.empty()) {
        const PendingRequest req = cpuQueue.front();
        cpuQueue.pop_front();
        busyCores_++;
        PartBook& book = slab[req.slot];
        queuedCostSeconds_ -= req.cost;
        if (book.firstStart < 0)
            book.firstStart = now;
        // The contention term sees how many cores are busy at
        // dispatch, this one included.
        const double service =
            cfg->serviceSeconds(book.part, req.batch, /*on_gpu=*/false,
                                busyCores_) *
            serviceFactor_;
        out.push_back({now + service, EngineEvent::Kind::CpuRequest,
                       book.part.partIdx, req.slot});
        requestsDispatched_++;
    }
}

void
MachineEngine::startGpu(double now, std::vector<EngineEvent>& out)
{
    if (gpuBusy || gpuQueue.empty())
        return;
    const PendingRequest req = gpuQueue.front();
    gpuQueue.pop_front();
    gpuBusy = true;
    PartBook& book = slab[req.slot];
    queuedCostSeconds_ -= req.cost;
    if (book.firstStart < 0)
        book.firstStart = now;
    const double service =
        cfg->serviceSeconds(book.part, req.batch, /*on_gpu=*/true,
                            busyCores_) *
        serviceFactor_;
    out.push_back({now + service, EngineEvent::Kind::GpuQuery,
                   book.part.partIdx, req.slot});
}

void
MachineEngine::admit(const PartSpec& part, double now,
                     std::vector<EngineEvent>& out)
{
    drs_assert(part.samples >= 1, "part needs samples");
    drs_assert(cfg->servesModel(part.model),
               "part admitted for a model this machine does not serve");
    advanceTo(now);
    const uint32_t slot = allocSlot();
    PartBook& book = slab[slot];
    book.part = part;
    book.requestsLeft = 0;
    book.firstStart = -1.0;   // slots are recycled; reset the stamp
    book.active = true;

    if (part.whole)
        totalSamples_ += part.samples;
    // Batch formation and offload follow the part's own model
    // binding; the query is the batch-split source, so requests never
    // mix models.
    // Each queued item is priced once, here; dispatch subtracts the
    // stored price.
    const SchedulerPolicy& sched = cfg->bindings[part.model].policy;
    const bool offload = part.whole && sched.gpuEnabled &&
        part.samples >= sched.gpuQueryThreshold;
    if (offload) {
        gpuSamples_ += part.samples;
        const double cost = cfg->serviceSeconds(part, part.samples,
                                                /*on_gpu=*/true, cfg->cores());
        gpuQueue.push_back({slot, part.samples, cost});
        queuedCostSeconds_ += cost;
        startGpu(now, out);
        return;
    }
    sched.forEachRequest(part.samples, [&](uint32_t take) {
        const double cost = cfg->serviceSeconds(part, take, /*on_gpu=*/false,
                                                cfg->cores());
        cpuQueue.push_back({slot, take, cost});
        queuedCostSeconds_ += cost;
        book.requestsLeft++;
    });
    dispatchCpu(now, out);
}

bool
MachineEngine::cpuRequestDone(uint32_t slot, uint64_t part_idx, double now,
                              std::vector<EngineEvent>& out)
{
    drs_assert(busyCores_ > 0, "completion with no busy core");
    advanceTo(now);
    busyCores_--;
    PartBook& book = bookAt(slot, part_idx);
    drs_assert(book.requestsLeft > 0, "part with no pending requests");
    const bool finished = --book.requestsLeft == 0;
    if (finished) {
        lastFinishedFirstStart_ = book.firstStart;
        freeSlot(slot);
    }
    dispatchCpu(now, out);
    return finished;
}

void
MachineEngine::gpuQueryDone(uint32_t slot, uint64_t part_idx, double now,
                            std::vector<EngineEvent>& out)
{
    drs_assert(gpuBusy, "GPU completion while idle");
    advanceTo(now);
    gpuBusy = false;
    // bookAt validates the slot is live and unrecycled.
    lastFinishedFirstStart_ = bookAt(slot, part_idx).firstStart;
    freeSlot(slot);
    startGpu(now, out);
}

size_t
warmupCount(size_t trace_size)
{
    return static_cast<size_t>(kWarmupFraction *
                               static_cast<double>(trace_size));
}

double
traceOfferedQps(const QueryTrace& trace)
{
    if (trace.size() < 2)
        return 0.0;
    const double span = trace.back().arrivalSeconds -
                        trace.front().arrivalSeconds;
    return span > 0.0
        ? static_cast<double>(trace.size() - 1) / span
        : 0.0;
}

} // namespace deeprecsys
