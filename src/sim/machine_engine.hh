/**
 * @file
 * The one per-machine service engine behind every discrete-event
 * simulator in the repo.
 *
 * Both `ServingSimulator` (one machine) and `ClusterSimulator` (N
 * machines behind a router) used to carry private copies of the same
 * mechanics — FIFO core pool, query-into-request batch splitting,
 * accelerator offload, busy-time/utilization integrals — and the
 * copies could (and did) drift. This header owns those mechanics
 * exactly once. A simulator is now a thin *driver*: it merges trace
 * arrivals with an EventQueue, admits work into one MachineEngine per
 * machine, and maps engine completions back to query-level joins and
 * statistics. A single-machine simulation is exactly a 1-machine
 * cluster with zero network cost and no sharding, and the
 * differential suite (tests/test_engine_diff.cc) holds the two
 * drivers to bit-identical results.
 *
 * The engine's unit of work is a **part**: a machine-local share of a
 * query. A whole-query dispatch is one part with embFraction 1; a
 * sharded fan-out admits one part per machine of the replica cover;
 * the two-stage join admits a second, dense-only leader part once the
 * remote embedding parts have returned. Parts carry a driver-chosen
 * opaque id the engine never interprets, echoed in every event; the
 * engine additionally stamps events with its internal slab *slot* so
 * completions index book-keeping directly (no hashing on the per-event
 * hot path) — drivers hand the slot back verbatim.
 *
 * Units: seconds throughout. Ownership: the engine keeps a pointer to
 * the driver's SimConfig, which must outlive it; everything else is
 * value state. Determinism: the engine is a pure state machine — no
 * random draws — and emits events in a defined order, so equal call
 * sequences produce bit-identical schedules; drivers must break event
 * ties by insertion sequence (EventQueue does).
 */

#ifndef DRS_SIM_MACHINE_ENGINE_HH
#define DRS_SIM_MACHINE_ENGINE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "costmodel/cpu_cost.hh"
#include "costmodel/gpu_cost.hh"
#include "loadgen/query.hh"

namespace deeprecsys {

/** The two knobs DeepRecSched tunes (Figure 8, right). */
struct SchedulerPolicy
{
    /** Maximum samples per CPU request (queries split above this). */
    size_t perRequestBatch = 25;

    /** Offload queries of size >= threshold to the accelerator. */
    bool gpuEnabled = false;
    uint32_t gpuQueryThreshold = 1;

    /**
     * The batch split: call @p each(take) once per CPU request a
     * @p samples-sample part splits into, in queue order — requests
     * of perRequestBatch samples, then a ragged last one.
     */
    template <class F>
    void
    forEachRequest(uint32_t samples, F&& each) const
    {
        const uint32_t batch = static_cast<uint32_t>(
            std::min<size_t>(perRequestBatch, samples));
        for (uint32_t remaining = samples; remaining > 0;) {
            const uint32_t take = std::min(remaining, batch);
            each(take);
            remaining -= take;
        }
    }
};

/** What one admitted part asks of its machine. */
struct PartSpec
{
    /** Driver-chosen opaque part id, echoed back in events. */
    uint64_t partIdx = 0;

    /** Candidate samples of the owning query (batch-split source). */
    uint32_t samples = 1;

    /** Share of the query's embedding work resident here, in [0, 1]. */
    double embFraction = 1.0;

    /** This part also runs the dense + interaction + predict stacks. */
    bool leader = true;

    /**
     * Whole-query part: takes the historical full-model cost path and
     * is eligible for accelerator offload. Shard parts and dense-only
     * join phases are not whole and always run on the core pool.
     */
    bool whole = true;

    /**
     * Mix model this part belongs to (index into the machine's
     * SimConfig::bindings; 0 on a single-model tier). The
     * engine prices, batch-splits, and offloads the part through that
     * model's own binding, and never merges requests across models —
     * each query is its own batch-split source, so a batch is
     * model-homogeneous by construction.
     */
    uint32_t model = 0;
};

/**
 * One model's machine-side binding: its own cost models and
 * scheduler policy. Binding k of SimConfig::bindings serves mix model
 * k; a single-model machine is one binding.
 */
struct ModelService
{
    CpuCostModel cpu;
    std::optional<GpuCostModel> gpu;
    SchedulerPolicy policy;
};

/** Configuration of one simulated serving machine. */
struct SimConfig
{
    /** A machine serving one model (mix model 0). */
    SimConfig(CpuCostModel cpu, std::optional<GpuCostModel> gpu,
              SchedulerPolicy policy)
    {
        bindings.push_back({std::move(cpu), std::move(gpu), policy});
    }

    /**
     * The models this machine serves, at least one: binding k serves
     * mix model k. All bindings share this machine's core pool,
     * slowdown, and memory budget; only pricing and batch policy are
     * per-model.
     */
    std::vector<ModelService> bindings;

    /** Machine speed multiplier (>1 is slower; fleet heterogeneity). */
    double slowdown = 1.0;

    /**
     * Embedding-memory budget of this machine in bytes; 0 means
     * unconstrained (the historical whole-model-everywhere fleet).
     * The cluster tier's shard placement packs tables within it and
     * the capacity planner treats it as a hard provisioning limit.
     */
    uint64_t memoryBytes = 0;

    /** Cores of the machine's shared pool (every binding's platform
     *  has this many; MachineEngine::validate checks). */
    size_t cores() const { return bindings.front().cpu.platform().cores; }

    /** True when mix model @p model has a binding on this machine. */
    bool servesModel(uint32_t model) const { return model < bindings.size(); }

    /**
     * The one price of a work item of @p part, in seconds, slowdown
     * applied, through the binding of the part's model. With
     * @p on_gpu it is the accelerator query of @p batch samples;
     * otherwise one CPU request of @p batch samples while
     * @p busy_cores cores are busy, this one included. A whole part
     * takes the full-model path; any other runs its embFraction of the
     * embedding gathers, plus the dense stacks iff it leads.
     *
     * Admission, the join phase and the engine's queue estimate price
     * at full contention, cores() (the steady state of a machine deep
     * enough in backlog for the estimate to matter); the engine's
     * dispatch prices at live contention, then applies its
     * gray-failure factor.
     */
    double serviceSeconds(const PartSpec& part, size_t batch, bool on_gpu,
                          size_t busy_cores) const;
};

/** A completion the engine schedules; the driver enqueues it. */
struct EngineEvent
{
    double time = 0;
    enum class Kind { CpuRequest, GpuQuery } kind = Kind::CpuRequest;

    /** Driver-chosen opaque id of the part (echoed for joins). */
    uint64_t partIdx = 0;

    /**
     * Engine-internal slab slot of the part; the driver hands it back
     * to cpuRequestDone/gpuQueryDone so the engine's hot path indexes
     * its book-keeping directly instead of hashing part ids.
     */
    uint32_t slot = 0;
};

/**
 * One machine: a pool of identical cores fed from one FIFO queue plus
 * an optional accelerator serving one query at a time. The engine
 * owns queue/occupancy state, the scheduler-policy hook (offload vs
 * batch split), service-time pricing against the cost models, its
 * busy-time integrals and its incarnation. It owns its clock too: the
 * clock starts at 0, and admit, cpuRequestDone, gpuQueryDone and crash
 * each first integrate busy time up to their own @p now. The driver
 * only has to call them in timestamp order. An idle span integrates
 * exactly zero, so every driver, static or elastic, sums a machine's
 * busy time in the same steps and gets the same bits.
 */
class MachineEngine
{
  public:
    /** @param config the machine being modeled (kept by pointer; must
     *                outlive the engine) */
    explicit MachineEngine(const SimConfig* config);

    /** Refuse a @p config that cannot be served (drs_fatal; both
     *  drivers call this at construction so bad configs fail before
     *  any run). */
    static void validate(const SimConfig& config);

    /**
     * Admit a part at time @p now. Per the scheduler policy the part
     * is either offloaded whole to the accelerator or split into
     * requests of at most perRequestBatch samples on the core pool.
     * Newly scheduled completions are appended to @p out in dispatch
     * order; the driver must enqueue them all.
     */
    void admit(const PartSpec& part, double now, std::vector<EngineEvent>& out);

    /**
     * A CPU request of the part at slab slot @p slot finished at
     * @p now: free the core, dispatch queued work, and report whether
     * that was the part's last request (the part is finished). Both
     * @p slot and @p part_idx come from the completing EngineEvent;
     * the pair is validated against the slab, so a stale slot that
     * was recycled to another part panics instead of corrupting it.
     */
    bool cpuRequestDone(uint32_t slot, uint64_t part_idx, double now,
                        std::vector<EngineEvent>& out);

    /**
     * The accelerator query of the part at slab slot @p slot
     * completed at @p now: free the accelerator and start the next
     * queued offload. GPU parts always finish in one completion.
     * @p slot / @p part_idx come from the completing EngineEvent.
     */
    void gpuQueryDone(uint32_t slot, uint64_t part_idx, double now,
                      std::vector<EngineEvent>& out);

    /**
     * Fail-stop crash at @p now: every queued and in-flight part is
     * lost. The driver ids of all live parts are appended to
     * @p lost_parts (in slot order — deterministic) so the driver can
     * account each loss; the engine then resets to an empty fresh
     * process — queues cleared, cores and accelerator freed, the gray
     * service factor back to 1 — and bumps epoch(), while the
     * busy-time integrals keep accumulating across the incarnation
     * (the machine, not the process, owns them). Completions already
     * scheduled by the dead incarnation carry the old epoch and must
     * be discarded by the driver (SimEvent::epoch).
     */
    void crash(double now, std::vector<uint64_t>& lost_parts);

    /** The incarnation: crashes so far. */
    uint32_t epoch() const { return epoch_; }

    /**
     * Gray failure: multiply every service time dispatched from now on
     * by @p factor (> 1 is slower; 1 restores health). Deliberately
     * invisible to queuedCostSeconds()/joinPhaseCostSeconds() — a gray
     * machine lies to the admission estimator exactly the way a real
     * straggler lies to a load balancer that prices on specs.
     */
    void setServiceFactor(double factor);

    /** Current gray-failure service multiplier (1 when healthy). */
    double serviceFactor() const { return serviceFactor_; }

    // ----------------------------------------------------- live view
    /** Work items (requests/queries) waiting in the two queues. */
    size_t queuedWork() const { return cpuQueue.size() + gpuQueue.size(); }

    /**
     * Estimated service seconds of everything waiting in the two
     * queues, each entry priced once at enqueue through
     * SimConfig::serviceSeconds at full contention. The exact
     * cost composition of a mixed queue — whole vs shard parts,
     * leaders vs followers, ragged batches — which no outside-in
     * estimate can reconstruct from counts alone. Each entry's stored
     * price is subtracted at dispatch; clamped against ulp-scale
     * residue.
     */
    double queuedCostSeconds() const
    {
        return std::max(0.0, queuedCostSeconds_);
    }

    /**
     * Estimated service seconds of a dense-only TwoStage join phase
     * of @p samples of mix model @p model on this machine
     * (embFraction 0, leader, not whole): the model's batch split
     * priced through SimConfig::serviceSeconds — what the phase
     * will add to queuedCostSeconds when it is admitted. A driver
     * stores the value when a fan-out commits the phase to this
     * machine and subtracts the stored value when it releases it.
     */
    double joinPhaseCostSeconds(uint32_t samples, uint32_t model = 0) const;

    /** Cores currently serving a request. */
    size_t busyCores() const { return busyCores_; }

    /** Parts admitted and not yet finished. */
    size_t partsInService() const { return slab.size() - freeSlots.size(); }

    /**
     * True when the machine holds no work at all — nothing queued, no
     * busy core or accelerator, no part in service. The elastic
     * cluster tier powers a draining machine off at the first moment
     * this holds.
     */
    bool
    idle() const
    {
        return busyCores_ == 0 && !gpuBusy && cpuQueue.empty() &&
               gpuQueue.empty() && partsInService() == 0;
    }

    // ------------------------------------------------------- results
    /** CPU requests dispatched so far. */
    uint64_t requestsDispatched() const { return requestsDispatched_; }

    /**
     * Integral of busy cores over time, up to the last engine call.
     * Once the engine is idle this is final.
     */
    double busyCoreSeconds() const { return busyCoreSeconds_; }

    /**
     * The same integral read at @p now, no earlier than the last
     * engine call, without moving the clock: reads between calls
     * leave the integrals' summation, and so their bits, unchanged.
     */
    double busyCoreSecondsAt(double now) const;

    /** Accelerator busy time, up to the last engine call. */
    double gpuBusySeconds() const { return gpuBusySeconds_; }

    /** Samples admitted across all parts (whole-query accounting). */
    double totalSamples() const { return totalSamples_; }

    /** Samples offloaded to the accelerator. */
    double gpuSamples() const { return gpuSamples_; }

    /**
     * First service-dispatch time of the part most recently reported
     * finished (by cpuRequestDone returning true or gpuQueryDone) —
     * the queue-wait boundary the observability layer attributes
     * against. Drivers read it immediately after the completion call;
     * it is overwritten by the next finished part.
     */
    double lastFinishedFirstServiceStart() const
    {
        return lastFinishedFirstStart_;
    }

    const SimConfig& config() const { return *cfg; }

  private:
    /**
     * Book-keeping for one in-service part, held in a slab indexed by
     * slot: admission allocates a slot (reusing freed ones via the
     * free list), completions index it straight from the event — the
     * dominant per-event lookup is one vector index instead of a hash
     * probe, and live books stay packed in a few cache lines.
     */
    struct PartBook
    {
        PartSpec part;             ///< as admitted
        uint32_t requestsLeft = 0;
        double firstStart = -1.0;  ///< first service dispatch (< 0: none)
        bool active = false;       ///< slot occupied (free-list guard)
    };

    /**
     * A queued work item: a CPU request of a part awaiting a core, or
     * a whole part awaiting the accelerator (batch = its samples),
     * with the price it added to queuedCostSeconds_ at enqueue.
     */
    struct PendingRequest
    {
        uint32_t slot;
        uint32_t batch;
        double cost;
    };

    /** Integrate busy time up to @p now (monotone); every call that
     *  changes occupancy makes this its first step. */
    void advanceTo(double now);

    void dispatchCpu(double now, std::vector<EngineEvent>& out);
    void startGpu(double now, std::vector<EngineEvent>& out);

    /** The live book at @p slot, validated against the event's part
     *  id (panics on a stale, recycled, or bad slot). */
    PartBook& bookAt(uint32_t slot, uint64_t part_idx);

    /** Allocate a slab slot for a newly admitted part. */
    uint32_t allocSlot();

    /** Return a finished part's slot to the free list. */
    void freeSlot(uint32_t slot);

    const SimConfig* cfg;
    std::deque<PendingRequest> cpuQueue;
    std::deque<PendingRequest> gpuQueue;     ///< parts awaiting offload
    std::vector<PartBook> slab;              ///< indexed by slot
    std::vector<uint32_t> freeSlots;         ///< LIFO free list
    size_t busyCores_ = 0;
    bool gpuBusy = false;
    double queuedCostSeconds_ = 0;
    double serviceFactor_ = 1.0;   ///< gray-failure multiplier

    // Busy-time integrals, advanced by the engine's own calls.
    double lastEventTime = 0;
    double busyCoreSeconds_ = 0;
    double gpuBusySeconds_ = 0;
    uint32_t epoch_ = 0;           ///< crashes so far

    uint64_t requestsDispatched_ = 0;
    double totalSamples_ = 0;
    double gpuSamples_ = 0;
    double lastFinishedFirstStart_ = -1.0;
};

/**
 * A driver-level scheduled event: an engine completion stamped with
 * its machine and an insertion sequence number. Ties in time break on
 * the sequence so heap order never depends on container internals —
 * the determinism rule both simulators inherit.
 *
 * Control and MachineUp belong to the elastic cluster driver
 * (cluster/autoscaler.cc): Control is a periodic scaling-policy tick
 * and MachineUp is a warmed-up machine joining the accepting set.
 * Retry is a client re-presenting a query the router shed earlier,
 * after a jittered backoff (cluster overload control; partIdx is the
 * query's handle in the driver's QueryBook), and also carries
 * failover re-presentations of queries a crash killed. Fault is a
 * scheduled FaultPlan transition (crash, recovery or gray-failure
 * window edge; partIdx indexes the precomputed fault schedule) and
 * HedgeCheck is the router revisiting a straggling fan-out to
 * duplicate unfinished parts (partIdx is the query's handle; slot
 * carries the dispatch generation so checks for a failed or
 * re-dispatched query go stale). They all
 * share the queue with service completions so faults, hedges, scale
 * and retry events interleave with traffic in one deterministic
 * (time, seq) order.
 */
struct SimEvent
{
    double time = 0;
    uint64_t seq = 0;
    enum class Kind
    {
        CpuRequest,
        GpuQuery,
        PartArrival,
        JoinPhase,
        Control,
        MachineUp,
        Retry,
        Fault,
        HedgeCheck,
    } kind = Kind::CpuRequest;
    uint32_t machine = 0;
    uint64_t partIdx = 0;

    /** Engine slab slot for CpuRequest/GpuQuery completions. */
    uint32_t slot = 0;

    /**
     * Engine incarnation (MachineEngine::epoch) that emitted this
     * completion. A crash bumps the engine's epoch, so completions
     * scheduled by the dead incarnation are recognized as stale and
     * discarded instead of being fed to the fresh engine (whose slab
     * they would corrupt).
     */
    uint32_t epoch = 0;

    bool
    operator>(const SimEvent& other) const
    {
        if (time != other.time)
            return time > other.time;
        return seq > other.seq;
    }
};

/**
 * Min-time event queue with deterministic insertion-order tie-break.
 * An explicit binary heap over a vector (rather than
 * std::priority_queue) so drivers can reserve() capacity up front —
 * trace sizes are known before the run, and the pop order is fully
 * determined by the (time, seq) total order either way.
 */
class EventQueue
{
  public:
    bool empty() const { return heap.empty(); }

    size_t size() const { return heap.size(); }

    /** Pre-size the heap (drivers know the trace length up front). */
    void reserve(size_t events) { heap.reserve(events); }

    const SimEvent& top() const { return heap.front(); }

    SimEvent
    pop()
    {
        std::pop_heap(heap.begin(), heap.end(), std::greater<SimEvent>());
        SimEvent ev = heap.back();
        heap.pop_back();
        return ev;
    }

    /** Enqueue a driver event (stamps the tie-break sequence). */
    void
    push(double time, SimEvent::Kind kind, uint32_t machine,
         uint64_t part_idx, uint32_t slot = 0, uint32_t epoch = 0)
    {
        heap.push_back(
            {time, nextSeq++, kind, machine, part_idx, slot, epoch});
        std::push_heap(heap.begin(), heap.end(), std::greater<SimEvent>());
    }

    /** Enqueue engine completions for @p machine in emission order,
     *  stamped with the machine's current engine @p epoch. */
    void
    pushAll(const std::vector<EngineEvent>& events, uint32_t machine,
            uint32_t epoch = 0)
    {
        for (const EngineEvent& ev : events) {
            push(ev.time,
                 ev.kind == EngineEvent::Kind::CpuRequest
                     ? SimEvent::Kind::CpuRequest
                     : SimEvent::Kind::GpuQuery,
                 machine, ev.partIdx, ev.slot, epoch);
        }
    }

  private:
    std::vector<SimEvent> heap;
    uint64_t nextSeq = 0;
};

/**
 * Measured-window accounting shared by the drivers: the span from the
 * first measured arrival to the last measured completion, from which
 * achieved QPS is derived.
 */
struct MeasuredSpan
{
    double firstArrival = -1.0;
    double lastCompletion = 0.0;

    void
    onArrival(double t)
    {
        if (firstArrival < 0.0)
            firstArrival = t;
    }

    void
    onCompletion(double t)
    {
        if (t > lastCompletion)
            lastCompletion = t;
    }

    /** Measured span in seconds (0 when nothing was measured). */
    double
    seconds() const
    {
        return firstArrival >= 0.0 ? lastCompletion - firstArrival : 0.0;
    }

    /** Completions per measured second (0 when the span is empty). */
    double
    achievedQps(uint64_t completions) const
    {
        const double span = seconds();
        return span > 0.0 ? static_cast<double>(completions) / span : 0.0;
    }
};

/** Fraction of a trace's leading queries every driver excludes from
 *  statistics, as the load generator's warm-up. */
constexpr double kWarmupFraction = 0.05;

/** Leading queries of a @p trace_size -query trace excluded from
 *  statistics: kWarmupFraction of them, truncated. */
size_t warmupCount(size_t trace_size);

/** Offered rate implied by a trace's arrival stamps (0 if degenerate). */
double traceOfferedQps(const QueryTrace& trace);

} // namespace deeprecsys

#endif // DRS_SIM_MACHINE_ENGINE_HH
