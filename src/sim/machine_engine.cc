#include "machine_engine.hh"

#include <algorithm>

#include "base/logging.hh"

namespace deeprecsys {

MachineEngine::MachineEngine(const SimConfig* config, double start_time)
    : cfg(config), lastEventTime(start_time)
{
    drs_assert(cfg != nullptr, "engine needs a machine config");
    validate(*cfg);
}

void
MachineEngine::validate(const SimConfig& config)
{
    if (config.policy.perRequestBatch < 1)
        drs_fatal("per-request batch must be >= 1");
    if (!(config.slowdown > 0.0))
        drs_fatal("slowdown must be positive");
    if (config.policy.gpuEnabled && !config.gpu.has_value())
        drs_fatal("GPU policy without a GPU model");
    for (const ModelService& co : config.coModels) {
        if (co.policy.perRequestBatch < 1)
            drs_fatal("co-model per-request batch must be >= 1");
        if (co.policy.gpuEnabled && !co.gpu.has_value())
            drs_fatal("co-model GPU policy without a GPU model");
        // Every binding shares this machine's physical core pool.
        if (co.cpu.platform().cores != config.cpu.platform().cores)
            drs_fatal("co-model platform core count differs from the "
                      "machine");
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

void
MachineEngine::crash(double now, std::vector<uint64_t>& lost_parts)
{
    // Bill busy time up to the instant of death, then drop the world.
    advanceTo(now);
    for (const PartBook& book : slab) {
        if (book.active)
            lost_parts.push_back(book.partIdx);
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
    drs_assert(slab[slot].partIdx == part_idx,
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
MachineEngine::queuedRequestCost(const PartBook& book, uint32_t batch) const
{
    // Priced at full contention — the steady state of a machine deep
    // enough in backlog for this estimate to matter. The expression is
    // evaluated once at enqueue and once at dequeue with identical
    // inputs, so the running sum reverses to the same double. Priced
    // through the part's own model binding (model 0 = the primary
    // fields, the historical arithmetic verbatim).
    const CpuCostModel& cpu = cpuOf(book.model);
    const size_t cores = cfg->cpu.platform().cores;
    return (book.whole
                ? cpu.requestSeconds(batch, cores)
                : cpu.partialRequestSeconds(batch, cores,
                                            book.embFraction,
                                            book.leader)) *
           cfg->slowdown;
}

double
MachineEngine::queuedGpuCost(const PartBook& book) const
{
    return gpuOf(book.model)->querySeconds(book.samples) * cfg->slowdown;
}

double
MachineEngine::joinPhaseCostSeconds(uint32_t samples, uint32_t model) const
{
    drs_assert(samples >= 1, "join phase needs samples");
    drs_assert(cfg->servesModel(model), "join phase for an unserved model");
    // Mirror the admit() batch split and queuedRequestCost pricing of
    // a dense-only leader part, so the value a driver adds when a
    // fan-out commits this phase equals, bit for bit, the value the
    // phase later adds to queuedCostSeconds_ at admission.
    PartBook book;
    book.embFraction = 0.0;
    book.leader = true;
    book.whole = false;
    book.model = model;
    const uint32_t batch = static_cast<uint32_t>(
        std::min<size_t>(policyOf(model).perRequestBatch, samples));
    double cost = 0.0;
    uint32_t remaining = samples;
    while (remaining > 0) {
        const uint32_t take = std::min(remaining, batch);
        cost += queuedRequestCost(book, take);
        remaining -= take;
    }
    return cost;
}

void
MachineEngine::dispatchCpu(double now, std::vector<EngineEvent>& out)
{
    const size_t cores = cfg->cpu.platform().cores;
    while (busyCores_ < cores && !cpuQueue.empty()) {
        const PendingRequest req = cpuQueue.front();
        cpuQueue.pop_front();
        busyCores_++;
        PartBook& book = slab[req.slot];
        queuedCostSeconds_ -= queuedRequestCost(book, req.batch);
        if (book.firstStart < 0)
            book.firstStart = now;
        // Whole queries take the historical full-model path; shard
        // parts are charged their local share of the embedding work
        // (plus the dense stacks when they lead). The contention term
        // sees how many cores are busy at dispatch, this one included.
        // Service is priced through the part's own model binding.
        const CpuCostModel& cpu = cpuOf(book.model);
        const double service =
            (book.whole
                 ? cpu.requestSeconds(req.batch, busyCores_)
                 : cpu.partialRequestSeconds(req.batch, busyCores_,
                                             book.embFraction,
                                             book.leader)) *
            cfg->slowdown * serviceFactor_;
        out.push_back({now + service, EngineEvent::Kind::CpuRequest,
                       book.partIdx, req.slot});
        requestsDispatched_++;
    }
}

void
MachineEngine::startGpu(double now, std::vector<EngineEvent>& out)
{
    if (gpuBusy || gpuQueue.empty())
        return;
    const uint32_t slot = gpuQueue.front();
    gpuQueue.pop_front();
    gpuBusy = true;
    PartBook& book = slab[slot];
    queuedCostSeconds_ -= queuedGpuCost(book);
    if (book.firstStart < 0)
        book.firstStart = now;
    const double service =
        gpuOf(book.model)->querySeconds(book.samples) * cfg->slowdown *
        serviceFactor_;
    out.push_back({now + service, EngineEvent::Kind::GpuQuery,
                   book.partIdx, slot});
}

void
MachineEngine::admit(const PartSpec& part, double now,
                     std::vector<EngineEvent>& out)
{
    drs_assert(part.samples >= 1, "part needs samples");
    drs_assert(cfg->servesModel(part.model),
               "part admitted for a model this machine does not serve");
    const uint32_t slot = allocSlot();
    PartBook& book = slab[slot];
    book.partIdx = part.partIdx;
    book.samples = part.samples;
    book.requestsLeft = 0;
    book.embFraction = part.embFraction;
    book.firstStart = -1.0;   // slots are recycled; reset the stamp
    book.leader = part.leader;
    book.whole = part.whole;
    book.active = true;
    book.model = part.model;

    if (part.whole)
        totalSamples_ += part.samples;
    // Batch formation and offload follow the part's own model
    // binding; the query is the batch-split source, so requests never
    // mix models (model 0 = the primary policy, historical path).
    const SchedulerPolicy& sched = policyOf(part.model);
    const bool offload = part.whole && sched.gpuEnabled &&
        part.samples >= sched.gpuQueryThreshold;
    if (offload) {
        gpuSamples_ += part.samples;
        gpuQueue.push_back(slot);
        queuedCostSeconds_ += queuedGpuCost(book);
        startGpu(now, out);
        return;
    }
    const uint32_t batch = static_cast<uint32_t>(
        std::min<size_t>(sched.perRequestBatch, part.samples));
    uint32_t remaining = part.samples;
    while (remaining > 0) {
        const uint32_t take = std::min(remaining, batch);
        cpuQueue.push_back({slot, take});
        queuedCostSeconds_ += queuedRequestCost(book, take);
        book.requestsLeft++;
        remaining -= take;
    }
    dispatchCpu(now, out);
}

bool
MachineEngine::cpuRequestDone(uint32_t slot, uint64_t part_idx, double now,
                              std::vector<EngineEvent>& out)
{
    drs_assert(busyCores_ > 0, "completion with no busy core");
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
    gpuBusy = false;
    // bookAt validates the slot is live and unrecycled.
    lastFinishedFirstStart_ = bookAt(slot, part_idx).firstStart;
    freeSlot(slot);
    startGpu(now, out);
}

size_t
warmupCount(double fraction, size_t trace_size)
{
    // Clamp defensively: the fraction is an unvalidated config field,
    // and a value outside [0, 1] must degrade to "measure everything"
    // / "measure nothing" rather than underflow the callers'
    // trace_size - warmup arithmetic.
    if (!(fraction > 0.0))
        return 0;
    if (fraction >= 1.0)
        return trace_size;
    return static_cast<size_t>(fraction *
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
