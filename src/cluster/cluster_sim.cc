#include "cluster_sim.hh"

#include <algorithm>

#include "base/logging.hh"
#include "cluster/part_book.hh"
#include "cluster/query_book.hh"
#include "loadgen/query_stream.hh"
#include "obs/observer.hh"

namespace deeprecsys {

std::vector<uint64_t>
machineMemoryBudgets(const std::vector<SimConfig>& machines)
{
    std::vector<uint64_t> budgets;
    budgets.reserve(machines.size());
    for (const SimConfig& machine : machines)
        budgets.push_back(machine.memoryBytes);
    return budgets;
}

namespace {

/** Live view the routing policy observes at each arrival. */
class LiveView final : public ClusterView
{
  public:
    LiveView(const std::vector<SimConfig>& configs,
             const std::vector<MachineEngine>& engines,
             const std::vector<uint64_t>& in_flight,
             const std::vector<double>& pending_join_cost,
             const std::vector<uint8_t>& down_mask,
             const size_t& up_count, size_t num_mix,
             const std::vector<uint64_t>& in_flight_by_model,
             const std::vector<double>& pending_join_by_model)
        : cfgs(configs), engines(engines), inFlight(in_flight),
          pendingJoinCost(pending_join_cost), down(down_mask),
          upCount(up_count), numMix(num_mix),
          inFlightByModel(in_flight_by_model),
          pendingJoinByModel(pending_join_by_model)
    {
    }

    size_t numMachines() const override { return engines.size(); }

    size_t
    inFlightQueries(size_t m) const override
    {
        return inFlight[m];
    }

    size_t
    queuedWork(size_t m) const override
    {
        return engines[m].queuedWork();
    }

    size_t
    queuedSamples(size_t m) const override
    {
        return engines[m].queuedSamples();
    }

    double
    queuedCostSeconds(size_t m) const override
    {
        return engines[m].queuedCostSeconds();
    }

    double
    pendingJoinCostSeconds(size_t m) const override
    {
        return pendingJoinCost[m];
    }

    bool
    hasGpu(size_t m) const override
    {
        return cfgs[m].policy.gpuEnabled && cfgs[m].gpu.has_value();
    }

    double
    speedFactor(size_t m) const override
    {
        return 1.0 / cfgs[m].slowdown;
    }

    bool accepting(size_t m) const override { return !down[m]; }

    bool
    allAccepting() const override
    {
        return upCount == engines.size();
    }

    // Per-model slices (multi-model tiers; the defaults degrade to
    // the totals when the driver keeps no per-model books).
    size_t numModels() const override { return numMix; }

    bool
    servesModel(size_t m, uint32_t model) const override
    {
        return cfgs[m].servesModel(model);
    }

    size_t
    inFlightQueriesOfModel(size_t m, uint32_t model) const override
    {
        return inFlightByModel.empty()
            ? inFlight[m]
            : inFlightByModel[m * numMix + model];
    }

    double
    queuedCostSecondsOfModel(size_t m, uint32_t model) const override
    {
        return engines[m].queuedCostSeconds(model);
    }

    double
    pendingJoinCostSecondsOfModel(size_t m, uint32_t model) const override
    {
        return pendingJoinByModel.empty()
            ? pendingJoinCost[m]
            : pendingJoinByModel[m * numMix + model];
    }

  private:
    const std::vector<SimConfig>& cfgs;
    const std::vector<MachineEngine>& engines;
    const std::vector<uint64_t>& inFlight;

    /** Driver-maintained committed TwoStage join-phase cost. */
    const std::vector<double>& pendingJoinCost;

    /** Driver-maintained crash mask (all up on the fault-free path). */
    const std::vector<uint8_t>& down;
    const size_t& upCount;

    /** Mix width and per-(machine, model) books; the vectors stay
     *  empty on single-model runs (slices fall back to totals). */
    const size_t numMix;
    const std::vector<uint64_t>& inFlightByModel;
    const std::vector<double>& pendingJoinByModel;
};

} // namespace

ClusterSimulator::ClusterSimulator(ClusterConfig config)
    : cfg(std::move(config))
{
    drs_assert(!cfg.machines.empty(), "cluster needs machines");
    for (const SimConfig& machine : cfg.machines)
        MachineEngine::validate(machine);
    if (!cfg.modelMix.empty()) {
        // Fraction rules are the trace splitter's (non-negative, sum
        // to 1); every mix model needs a binding somewhere or no
        // routing policy could legally place its queries.
        (void)splitCountByFraction(mixFractions(cfg.modelMix), 0);
        size_t max_served = 0;
        for (const SimConfig& machine : cfg.machines)
            max_served = std::max(max_served, machine.numModels());
        drs_assert(max_served >= cfg.modelMix.size(),
                   "no machine serves the mix's last model");
        if (cfg.modelMix.size() > 1 && cfg.sharding.has_value())
            drs_assert(cfg.sharding->models.size() == cfg.modelMix.size(),
                       "a multi-model sharded tier needs one table "
                       "namespace per mix model");
    }
    if (cfg.sharding.has_value()) {
        const ShardPlacement& placement = cfg.sharding->placement;
        drs_assert(placement.feasible(),
                   "cluster sharding needs a feasible placement");
        drs_assert(placement.numMachines() == cfg.machines.size(),
                   "placement machine count mismatch");
        drs_assert(cfg.sharding->tableSet.numTables ==
                       placement.numTables(),
                   "table-set model must match the placed tables");
        for (size_t m = 0; m < cfg.machines.size(); m++) {
            const uint64_t budget = cfg.machines[m].memoryBytes;
            drs_assert(budget == 0 ||
                           placement.bytesOnMachine(m) <= budget,
                       "placement exceeds a machine memory budget");
        }
    }
    if (cfg.faults.enabled()) {
        validateFaultPlan(cfg.faults);
        // Crashing a machine destroys its shard replicas for the
        // outage; refuse placements that cannot survive the plan's
        // declared tolerance (ShardPlacement availability validator).
        if (cfg.sharding.has_value() && cfg.faults.faultTolerance > 0)
            drs_assert(cfg.sharding->placement.replicatedFor(
                           cfg.faults.faultTolerance),
                       "placement replication below the declared "
                       "fault tolerance");
    }
    if (cfg.hedge.enabled()) {
        drs_assert(cfg.sharding.has_value(),
                   "hedged requests need a sharded tier (only fan-out "
                   "parts hedge)");
        drs_assert(cfg.hedge.delayFor(cfg.overload.deadlineSeconds) > 0.0,
                   "hedge delay must resolve positive (set delaySeconds "
                   "or a deadline for delayFraction)");
    }
}

ClusterResult
ClusterSimulator::run(const QueryTrace& trace, RoutingPolicy& policy) const
{
    ClusterResult result;
    result.perMachine.resize(cfg.machines.size());
    // Multi-model colocation: per-model books are kept only when the
    // config carries a mix, so single-model runs take no new branch
    // with observable state (bitwise-identical to the historical
    // driver; the differential suite pins it).
    const bool mixOn = !cfg.modelMix.empty();
    const size_t numMix = std::max<size_t>(1, cfg.modelMix.size());
    result.perModel.resize(cfg.modelMix.size());
    if (cfg.sharding.has_value()) {
        for (size_t m = 0; m < cfg.machines.size(); m++)
            result.perMachine[m].embBytesStored =
                cfg.sharding->placement.bytesOnMachine(m);
    }
    if (trace.empty())
        return result;

    const size_t warmup = warmupCount(cfg.warmupFraction, trace.size());
    result.fleetLatencySeconds.reserve(trace.size() - warmup);

    QueryBook queries;
    PartBook parts;

    std::vector<MachineEngine> machines;
    machines.reserve(cfg.machines.size());
    for (const SimConfig& machine : cfg.machines)
        machines.emplace_back(&machine, trace.front().arrivalSeconds);
    std::vector<uint64_t> inFlight(cfg.machines.size(), 0);
    // Per-(machine, model) flight and committed-join books of a mixed
    // tier, flattened [m * numMix + model]; empty (never touched) on
    // single-model runs.
    std::vector<uint64_t> inFlightByModel(
        mixOn ? cfg.machines.size() * numMix : 0, 0);
    std::vector<double> pendingJoinByModel(
        mixOn ? cfg.machines.size() * numMix : 0, 0.0);

    auto flight_add = [&](uint32_t m, uint32_t model) {
        inFlight[m]++;
        if (mixOn)
            inFlightByModel[m * numMix + model]++;
    };
    auto flight_sub = [&](uint32_t m, uint32_t model, const char* what) {
        drs_assert(inFlight[m] > 0, what);
        inFlight[m]--;
        if (mixOn) {
            drs_assert(inFlightByModel[m * numMix + model] > 0, what);
            inFlightByModel[m * numMix + model]--;
        }
    };

    EventQueue events;
    // Pre-size the heap: per machine at most one completion per busy
    // core plus one offload, plus forwarded parts in flight.
    size_t total_cores = 0;
    for (const SimConfig& machine : cfg.machines)
        total_cores += machine.cpu.platform().cores;
    events.reserve(std::min(trace.size(), total_cores + 256));
    std::vector<EngineEvent> scheduled;
    scheduled.reserve(256);

    // Committed-but-unqueued TwoStage join-phase cost per machine:
    // engine-exact (MachineEngine::joinPhaseCostSeconds added at
    // fan-out dispatch, the identical value subtracted when the phase
    // is admitted), maintained only when the admission estimator
    // consumes it so the disabled path stays the historical driver.
    std::vector<double> pendingJoinCost(cfg.machines.size(), 0.0);

    // Fault-injection state. When the plan is disabled every vector
    // stays at its identity value and no new branch is taken, so the
    // run is bitwise-identical to the fault-free driver.
    const bool faultsOn = cfg.faults.enabled();
    const bool hedgeOn = cfg.hedge.enabled();
    const double hedgeDelay =
        cfg.hedge.delayFor(cfg.overload.deadlineSeconds);
    std::vector<uint8_t> down(cfg.machines.size(), 0);
    std::vector<int> downDepth(cfg.machines.size(), 0);
    std::vector<int> grayDepth(cfg.machines.size(), 0);
    std::vector<int> netDepth(cfg.machines.size(), 0);
    std::vector<double> netFactor(cfg.machines.size(), 1.0);
    std::vector<uint32_t> engineEpoch(cfg.machines.size(), 0);
    size_t upCount = cfg.machines.size();
    std::vector<uint64_t> lostBuf;
    // Engines advanced by a crash may run ahead of lastEventTime; the
    // final utilization advance must not move their clocks backwards.
    double lastFaultAdvance = trace.front().arrivalSeconds;
    std::vector<FaultEvent> faultSchedule;
    if (faultsOn) {
        faultSchedule = buildFaultSchedule(
            cfg.faults, static_cast<uint32_t>(cfg.machines.size()),
            trace.front().arrivalSeconds, trace.back().arrivalSeconds);
        for (size_t i = 0; i < faultSchedule.size(); i++)
            events.push(faultSchedule[i].time, SimEvent::Kind::Fault,
                        faultSchedule[i].machine, i);
    }

    LiveView view(cfg.machines, machines, inFlight, pendingJoinCost,
                  down, upCount, numMix, inFlightByModel,
                  pendingJoinByModel);
    // Overload control: only constructed when enabled, so the disabled
    // path is the historical driver plus one boolean test per arrival.
    std::optional<AdmissionController> admission;
    if (cfg.overload.enabled()) {
        // A sharded tier serves roughly 1/N of a query's embedding
        // work per machine; tell the estimator so heavy queries are
        // not priced as if one machine ran the whole model.
        const double share = cfg.sharding
            ? 1.0 / static_cast<double>(cfg.machines.size())
            : 1.0;
        admission.emplace(cfg.overload, cfg.machines, share,
                          cfg.network, cfg.join);
    }
    const bool trackJoinCost =
        admission.has_value() && cfg.join == JoinModel::TwoStage;
    // Per-class accounting rides with deadline/goodput accounting.
    if (cfg.overload.enabled() && cfg.overload.deadlineSeconds > 0.0)
        result.overload.perClass.resize(cfg.overload.priorityClasses);
    auto class_stats = [&](uint32_t cls) -> ClassOverloadStats* {
        return result.overload.perClass.empty()
            ? nullptr
            : &result.overload.perClass[cls];
    };
    result.machineOfQuery.resize(trace.size());
    result.partMachinesOfQuery.reserveRows(trace.size());

    MeasuredSpan span;
    double lastEventTime = trace.front().arrivalSeconds;

    if (obs_) {
        obs_->onRunStart(trace.front().arrivalSeconds);
        policy.attachObserver(obs_);
    }

    auto admit_part = [&](uint64_t part_idx, const PartSpec& spec,
                          double now) {
        const uint32_t m = parts[part_idx].machine;
        scheduled.clear();
        machines[m].admit(spec, now, scheduled);
        events.pushAll(scheduled, m, engineEpoch[m]);
    };

    // A part reaches its machine (after the forward hop, if any).
    auto start_part = [&](uint64_t part_idx, double now) {
        if (obs_)
            parts[part_idx].start = now;
        const PartRec& part = parts[part_idx];
        const QueryState& q = queries[part.queryIdx];
        PartSpec spec;
        spec.partIdx = part_idx;
        spec.samples = q.size;
        spec.model = q.model;
        switch (part.kind) {
          case PartRec::Kind::Whole:
            break;    // full-model path, offload-eligible
          case PartRec::Kind::FanEmb:
            // Local embedding share only. Under the optimistic join
            // the leader also runs its dense stacks concurrently
            // here; under TwoStage the dense work waits for the join.
            spec.embFraction = part.embFraction;
            spec.leader = cfg.join == JoinModel::Optimistic &&
                part.leader;
            spec.whole = false;
            break;
          case PartRec::Kind::FanDense:
            spec.embFraction = 0.0;
            spec.leader = true;
            spec.whole = false;
            break;
        }
        admit_part(part_idx, spec, now);
    };

    auto complete_query = [&](uint64_t query_idx) {
        QueryState& q = queries[query_idx];
        q.settled = true;
        result.numCompleted++;
        result.perMachine[q.machine].queriesCompleted++;
        if (mixOn)
            result.perModel[q.model].completed++;
        if (q.measured) {
            const double latency = q.joinTime - q.arrival;
            result.fleetLatencySeconds.add(latency);
            result.perMachine[q.machine].latencySeconds.add(latency);
            if (mixOn)
                result.perModel[q.model].latencySeconds.add(latency);
            span.onCompletion(q.joinTime);
            if (cfg.overload.deadlineSeconds > 0.0) {
                result.overload.measuredCompleted++;
                ClassOverloadStats* cs = class_stats(q.cls);
                if (cs)
                    cs->measuredCompleted++;
                if (latency <= cfg.overload.deadlineSeconds) {
                    result.overload.completedWithinDeadline++;
                    result.overload.qualityWeight += q.quality;
                    if (cs) {
                        cs->completedWithinDeadline++;
                        cs->qualityWeight += q.quality;
                    }
                }
            }
        }
        lastEventTime = std::max(lastEventTime, q.joinTime);
        if (obs_) {
            const double back = cfg.network.oneWaySeconds(
                static_cast<double>(q.size) *
                cfg.network.responseBytesPerSample);
            obs_->onQueryComplete(query_idx, q.joinTime, back);
        }
    };

    // A part finished all of its local work.
    auto finish_part = [&](uint64_t part_idx, double now, bool gpu) {
        PartRec& part = parts[part_idx];
        if (obs_) {
            obs_->onPartDone(
                part.queryIdx, part.machine, stageOf(part.kind),
                part.leader, gpu, part.start,
                machines[part.machine].lastFinishedFirstServiceStart(),
                now);
        }
        flight_sub(part.machine, queries[part.queryIdx].model,
                   "completion with nothing in flight");
        QueryState& q = queries[part.queryIdx];
        part.done = true;

        if (faultsOn || hedgeOn) {
            // A completion of a killed dispatch is a ghost: the query
            // already failed over (or was lost) and this part's share
            // was accounted at the kill.
            if (part.gen != q.gen || q.dead)
                return;
            if (part.partner != PartRec::kNoPartner) {
                const PartRec& twin = parts[part.partner];
                if (twin.done) {
                    // The twin got here first; this copy's answer is
                    // discarded (tied-request loser).
                    result.faults.hedgeWasted++;
                    return;
                }
                if (part.hedged)
                    result.faults.hedgeWins++;
            }
        }

        if (part.kind == PartRec::Kind::FanEmb &&
            cfg.join == JoinModel::TwoStage) {
            // Pooled embeddings travel to the leader; the dense phase
            // starts once the last part (the leader's own hop-free)
            // lands. A degraded NIC on either end stretches the hop.
            const double to_leader = part.leader
                ? 0.0
                : cfg.network.oneWaySeconds(
                      static_cast<double>(q.size) *
                      cfg.network.embeddingBytesPerSample) *
                      std::max(netFactor[part.machine],
                               netFactor[q.machine]);
            q.leaderReady = std::max(q.leaderReady, now + to_leader);
            drs_assert(q.partsLeft > 0, "query with no pending parts");
            if (--q.partsLeft > 0)
                return;
            q.partsLeft = 1;    // the dense phase itself
            const uint64_t dense_idx = parts.push(
                {.queryIdx = part.queryIdx, .machine = q.machine,
                 .kind = PartRec::Kind::FanDense, .embFraction = 0.0,
                 .gen = q.gen});
            q.partsEnd = dense_idx + 1;
            flight_add(q.machine, q.model);
            result.perMachine[q.machine].joinPhases++;
            events.push(q.leaderReady, SimEvent::Kind::JoinPhase,
                        q.machine, dense_idx);
            return;
        }

        // Whole parts, optimistic fan-out parts, and dense phases all
        // return scores to the router and join there.
        const double back = cfg.network.oneWaySeconds(
            static_cast<double>(q.size) *
            cfg.network.responseBytesPerSample) *
            netFactor[part.machine];
        q.joinTime = std::max(q.joinTime, now + back);
        drs_assert(q.partsLeft > 0, "query with no pending parts");
        if (--q.partsLeft == 0)
            complete_query(part.queryIdx);
    };

    // A failure destroyed query @p idx's current dispatch. Release
    // its committed join cost, then either fail over (schedule a
    // re-present with exponential client backoff) or record the final
    // loss. Callers guarantee the query is live (not dead, current
    // generation).
    auto fail_query = [&](uint64_t idx, double now) {
        QueryState& q = queries[idx];
        q.dead = true;
        if (q.joinCommitted) {
            const double phase =
                machines[q.machine].joinPhaseCostSeconds(q.size, q.model);
            pendingJoinCost[q.machine] -= phase;
            if (mixOn)
                pendingJoinByModel[q.machine * numMix + q.model] -= phase;
            q.joinCommitted = false;
        }
        if (q.failovers < cfg.faults.maxFailovers) {
            q.failovers++;
            result.faults.failovers++;
            const double delay = cfg.faults.failoverDelaySeconds *
                static_cast<double>(
                    1u << std::min<uint32_t>(q.failovers - 1, 16));
            events.push(now + delay, SimEvent::Kind::Retry, 0, idx);
            if (obs_)
                obs_->onQueryFailover(idx, now, q.failovers, delay);
        } else {
            q.settled = true;
            result.faults.lost++;
            result.faults.lostQueries.push_back(idx);
            if (mixOn)
                result.perModel[q.model].lost++;
            result.machineOfQuery[idx] = ClusterResult::lostMachine;
            if (idx >= warmup)
                span.onArrival(trace[idx].arrivalSeconds);
            if (obs_)
                obs_->onQueryLost(idx, now);
        }
    };

    // A live part was destroyed (its machine crashed, or its forwarded
    // RPC landed on a dead machine). Decide the owning query's fate.
    auto lost_part_fate = [&](uint64_t part_idx, double now) {
        PartRec& part = parts[part_idx];
        part.cancelled = true;
        flight_sub(part.machine, queries[part.queryIdx].model,
                   "lost part with nothing in flight");
        result.faults.partsLost++;
        QueryState& q = queries[part.queryIdx];
        if (part.gen != q.gen || q.dead)
            return;    // that dispatch already died
        if (part.partner != PartRec::kNoPartner) {
            const PartRec& twin = parts[part.partner];
            if (twin.done)
                return;    // the share already completed via the twin
            if (!twin.cancelled) {
                // The twin is still running and carries the share —
                // the hedge just saved this query from the crash.
                result.faults.hedgeSaves++;
                return;
            }
        }
        fail_query(part.queryIdx, now);
    };

    // Fail-stop crash of machine @p m: epoch-fence its pending engine
    // completions, destroy queued and in-flight work, mark it
    // non-accepting. Depth-counted so overlapping windows (random +
    // correlated) stay idempotent.
    auto on_crash = [&](uint32_t m, double now) {
        if (downDepth[m]++ > 0)
            return;
        down[m] = 1;
        upCount--;
        result.faults.crashes++;
        engineEpoch[m]++;
        lastFaultAdvance = std::max(lastFaultAdvance, now);
        lostBuf.clear();
        machines[m].crash(now, lostBuf);
        if (obs_)
            obs_->onMachineDown(m, now);
        for (uint64_t lost_part : lostBuf)
            lost_part_fate(lost_part, now);
    };

    auto on_recover = [&](uint32_t m, double now) {
        drs_assert(downDepth[m] > 0, "recovery of a machine never down");
        if (--downDepth[m] > 0)
            return;
        down[m] = 0;
        upCount++;
        result.faults.recoveries++;
        if (obs_)
            obs_->onMachineUp(m, now);
    };

    // Tail-at-scale hedging: the query is still missing fan-out parts
    // hedgeDelay after dispatch. Duplicate each unfinished, unhedged,
    // non-leader embedding part onto the least-loaded accepting
    // replica of its tables and let the copies race.
    auto hedge_query = [&](uint64_t idx, double now) {
        QueryState& q = queries[idx];
        const uint64_t first = q.firstPart;
        const uint32_t width = q.numParts;
        for (uint32_t i = 0; i < width; i++) {
            const uint64_t pi = first + i;
            if (parts[pi].done || parts[pi].cancelled ||
                parts[pi].leader ||
                parts[pi].partner != PartRec::kNoPartner ||
                parts[pi].kind != PartRec::Kind::FanEmb)
                continue;
            const uint32_t src = parts[pi].machine;
            const ShardPlacement& placement = cfg.sharding->placement;
            size_t best = machines.size();
            double best_load = 0.0;
            for (size_t m = 0; m < machines.size(); m++) {
                if (m == src || down[m])
                    continue;
                if (!placement.holdsAll(m, parts[pi].tables))
                    continue;
                // The router's load signal (outstanding work scaled
                // by machine speed), lowest index winning ties.
                const double load =
                    static_cast<double>(inFlight[m] +
                                        machines[m].queuedWork()) *
                    cfg.machines[m].slowdown;
                if (best == machines.size() || load < best_load) {
                    best = m;
                    best_load = load;
                }
            }
            if (best == machines.size())
                continue;    // no surviving replica to hedge onto
            const uint64_t dup_idx = parts.push(
                {.queryIdx = idx, .machine = static_cast<uint32_t>(best),
                 .kind = PartRec::Kind::FanEmb,
                 .embFraction = parts[pi].embFraction, .partner = pi,
                 .leader = false, .hedged = true,
                 .tables = parts[pi].tables, .gen = q.gen});
            parts[pi].partner = dup_idx;
            q.partsEnd = dup_idx + 1;
            flight_add(static_cast<uint32_t>(best), q.model);
            result.perMachine[best].remoteParts++;
            result.numParts++;
            q.partMachines.push_back(static_cast<uint32_t>(best));
            result.faults.hedged++;
            if (obs_)
                obs_->onPartHedged(idx, now, src,
                                   static_cast<uint32_t>(best));
            const double forward = cfg.network.oneWaySeconds(
                static_cast<double>(q.size) *
                cfg.network.requestBytesPerSample) * netFactor[best];
            if (forward > 0.0) {
                events.push(now + forward, SimEvent::Kind::PartArrival,
                            static_cast<uint32_t>(best), dup_idx);
            } else {
                machines[best].advanceTo(now);
                start_part(dup_idx, now);
            }
        }
    };

    // Present query @p idx to the router at @p now — its trace
    // arrival, or a client retry of an earlier shed. The router's
    // overload verdict either drops it (final, or with a retry
    // scheduled), degrades it (shrinks the size dispatched
    // downstream), or passes it through. Latency always counts from
    // the original trace arrival, so a retried completion pays its
    // backoff — retries buy availability, not goodput.
    auto present = [&](uint64_t idx, double now) {
        const Query& in = trace[idx];
        QueryState& q = queries[idx];
        drs_assert(in.model < numMix,
                   "query's model is outside the tier's mix");
        q.model = in.model;
        q.cls = cfg.overload.priorityClasses > 1
            ? std::min(in.priorityClass, cfg.overload.priorityClasses - 1)
            : 0;
        ClassOverloadStats* cs = class_stats(q.cls);
        if (cs && q.attempt == 0 && q.failovers == 0)
            cs->offered++;

        Query served = in;
        double quality = 1.0;
        if (admission) {
            const AdmissionDecision verdict = admission->decide(in, view);
            if (!verdict.admit) {
                // Shed at the router: nothing reaches a machine.
                // Measured drops still open the span so goodput is
                // charged against real offered time.
                lastEventTime = std::max(lastEventTime, now);
                if (idx >= warmup)
                    span.onArrival(in.arrivalSeconds);
                result.overload.dropped++;
                if (cs)
                    cs->dropped++;
                if (verdict.retryable &&
                    q.attempt < cfg.overload.maxRetries) {
                    const double delay = retryDelaySeconds(
                        cfg.overload.retryBackoffSeconds,
                        cfg.overload.retryBackoffFactor,
                        cfg.overload.retryJitterFraction,
                        verdict.retryAfterSeconds, in.id, q.attempt);
                    q.attempt++;
                    result.overload.retried++;
                    if (cs)
                        cs->retried++;
                    events.push(now + delay, SimEvent::Kind::Retry, 0,
                                idx);
                    if (obs_)
                        obs_->onQueryRetry(idx, now, q.attempt, delay);
                } else {
                    q.settled = true;
                    result.overload.droppedFinal++;
                    if (cs)
                        cs->droppedFinal++;
                    if (mixOn)
                        result.perModel[in.model].droppedFinal++;
                    result.machineOfQuery[idx] =
                        ClusterResult::droppedMachine;
                    result.overload.droppedQueries.push_back(idx);
                    if (obs_)
                        obs_->onQueryDrop(idx, now, in.size);
                }
                return;
            }
            if (verdict.servedSize < in.size)
                served.size = verdict.servedSize;
            quality = verdict.quality;
        }

        // Route before committing the admission books: under fault
        // injection the query may be unservable (no accepting replica
        // set covers its tables), which is neither an admission nor a
        // drop — admission never saw a servable query.
        std::vector<ShardTarget> plan;
        if (!faultsOn || upCount > 0)
            plan = policy.routeParts(served, view);
        if (plan.empty()) {
            drs_assert(faultsOn, "policy returned no targets");
            lastEventTime = std::max(lastEventTime, now);
            if (idx >= warmup)
                span.onArrival(in.arrivalSeconds);
            result.faults.unroutable++;
            fail_query(idx, now);
            return;
        }
        if (admission && served.size < in.size) {
            result.overload.degraded++;
            if (cs)
                cs->degraded++;
            result.overload.degradedQueries.push_back(
                {idx, in.size, served.size});
            if (obs_)
                obs_->onQueryDegrade(idx, now, in.size, served.size);
        }
        result.overload.admitted++;
        if (cs)
            cs->admitted++;
        lastEventTime = std::max(lastEventTime, now);

        q.arrival = in.arrivalSeconds;
        q.size = served.size;
        q.partsLeft = static_cast<uint32_t>(plan.size());
        q.joinTime = now;
        q.leaderReady = now;
        q.quality = quality;
        q.measured = idx >= warmup;
        q.gen++;
        q.dead = false;
        q.firstPart = parts.nextId();
        q.numParts = static_cast<uint32_t>(plan.size());
        q.joinCommitted = false;
        if (q.measured)
            span.onArrival(in.arrivalSeconds);

        result.numDispatched++;
        if (mixOn)
            result.perModel[q.model].dispatched++;
        const double forward = cfg.network.oneWaySeconds(
            static_cast<double>(served.size) *
            cfg.network.requestBytesPerSample);
        if (obs_)
            obs_->onQueryDispatch(idx, now, served.size, plan.size(),
                                  forward, q.measured);

        q.partMachines.reserve(q.partMachines.size() + plan.size());
        size_t leaders = 0;
        for (ShardTarget& target : plan) {
            drs_assert(target.machine < machines.size(),
                       "policy routed out of range");
            const uint32_t m = target.machine;
            drs_assert(!down[m], "policy routed to a down machine");
            machines[m].advanceTo(now);
            flight_add(m, q.model);
            if (target.leader) {
                leaders++;
                q.machine = m;
                q.leaderEpoch = engineEpoch[m];
                result.machineOfQuery[idx] = m;
                result.perMachine[m].queriesDispatched++;
            } else {
                result.perMachine[m].remoteParts++;
            }
            q.partMachines.push_back(m);

            const uint64_t part_idx = parts.push(
                {.queryIdx = idx, .machine = m,
                 .kind = plan.size() == 1 ? PartRec::Kind::Whole
                                          : PartRec::Kind::FanEmb,
                 .embFraction = target.embFraction,
                 .leader = target.leader,
                 .tables = hedgeOn ? std::move(target.tables)
                                   : std::vector<uint32_t>{},
                 .gen = q.gen});
            result.numParts++;
            if (forward > 0.0) {
                events.push(now + forward * netFactor[m],
                            SimEvent::Kind::PartArrival, m, part_idx);
            } else {
                start_part(part_idx, now);
            }
        }
        drs_assert(leaders == 1, "plan needs exactly one leader");
        q.partsEnd = parts.nextId();
        // Commit the leader's future dense phase to the estimator's
        // second-order backlog (released exactly once, at the
        // JoinPhase event or when a failure kills the dispatch).
        if (trackJoinCost && plan.size() > 1) {
            const double phase = machines[q.machine].joinPhaseCostSeconds(
                served.size, q.model);
            pendingJoinCost[q.machine] += phase;
            if (mixOn)
                pendingJoinByModel[q.machine * numMix + q.model] += phase;
            q.joinCommitted = true;
        }
        // Arm the tail-at-scale hedge for fanned-out dispatches; the
        // check goes stale if the query completes or fails first.
        if (hedgeOn && plan.size() > 1) {
            q.hedgeChecks++;
            events.push(now + hedgeDelay, SimEvent::Kind::HedgeCheck, 0,
                        idx, q.gen);
        }
    };

    // A part leaves the book once it is terminal, its hedge twin is
    // terminal, and its dispatch is over (see PartBook::retire).
    auto dispatch_over = [&](const PartRec& p) {
        const QueryState& q = queries[p.queryIdx];
        return p.gen != q.gen || q.dead || q.partsLeft == 0;
    };
    // Parts first: a query leaves the book only after its parts (see
    // QueryBook::retire); the observer drops its span records with it.
    // Nothing appends to a retired query's part machines, and queries
    // retire in trace order, so each becomes its row of the flat book.
    auto flush_row = [&](const QueryState& q) {
        result.partMachinesOfQuery.appendRow(q.partMachines);
    };
    auto retire_books = [&] {
        parts.retire(dispatch_over);
        if (queries.retire(parts, flush_row) && obs_)
            obs_->onQueriesRetired(queries.lowId());
    };

    size_t nextArrival = 0;
    while (nextArrival < trace.size() || !events.empty()) {
        retire_books();
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
            const uint64_t query_id = queries.push({});
            drs_assert(query_id == nextArrival,
                       "query ids must follow the trace");
            result.overload.offered++;
            if (mixOn) {
                drs_assert(in.model < numMix,
                           "query's model is outside the tier's mix");
                result.perModel[in.model].offered++;
            }
            present(nextArrival, in.arrivalSeconds);
            nextArrival++;
            continue;
        }

        const SimEvent ev = events.pop();

        // Fault transitions and hedge checks are environment, not
        // traffic: they are handled before the generic advance so they
        // never stretch the measured span or utilization window.
        if (ev.kind == SimEvent::Kind::Fault) {
            const FaultEvent& fe = faultSchedule[ev.partIdx];
            switch (fe.kind) {
              case FaultEvent::Kind::Crash:
                on_crash(fe.machine, ev.time);
                break;
              case FaultEvent::Kind::Recover:
                on_recover(fe.machine, ev.time);
                break;
              case FaultEvent::Kind::GrayStart:
                // Depth-counted: overlapping windows extend, the first
                // open sets the factor, the last close clears it.
                if (grayDepth[fe.machine]++ == 0) {
                    machines[fe.machine].setServiceFactor(fe.factor);
                    result.faults.grayWindows++;
                }
                break;
              case FaultEvent::Kind::GrayEnd:
                if (--grayDepth[fe.machine] == 0)
                    machines[fe.machine].setServiceFactor(1.0);
                break;
              case FaultEvent::Kind::NetDegradeStart:
                if (netDepth[fe.machine]++ == 0) {
                    netFactor[fe.machine] = fe.factor;
                    result.faults.netDegradeWindows++;
                }
                break;
              case FaultEvent::Kind::NetDegradeEnd:
                if (--netDepth[fe.machine] == 0)
                    netFactor[fe.machine] = 1.0;
                break;
            }
            continue;
        }
        if (ev.kind == SimEvent::Kind::HedgeCheck) {
            QueryState& hq = queries[ev.partIdx];
            hq.hedgeChecks--;
            if (ev.slot == hq.gen && !hq.dead && hq.partsLeft > 0)
                hedge_query(ev.partIdx, ev.time);
            continue;
        }
        // A completion stamped by a dead engine incarnation is a
        // ghost: the crash already accounted for its part.
        if (faultsOn && ev.epoch != engineEpoch[ev.machine] &&
            (ev.kind == SimEvent::Kind::CpuRequest ||
             ev.kind == SimEvent::Kind::GpuQuery))
            continue;

        machines[ev.machine].advanceTo(ev.time);
        lastEventTime = std::max(lastEventTime, ev.time);

        switch (ev.kind) {
          case SimEvent::Kind::PartArrival:
            if (faultsOn) {
                PartRec& part = parts[ev.partIdx];
                const QueryState& q = queries[part.queryIdx];
                if (part.gen != q.gen || q.dead) {
                    // The dispatch died while this RPC was in flight;
                    // the client cancelled it.
                    part.cancelled = true;
                    flight_sub(ev.machine, q.model,
                               "cancel with nothing in flight");
                    break;
                }
                if (down[ev.machine]) {
                    // Forwarded onto a machine that died en route.
                    lost_part_fate(ev.partIdx, ev.time);
                    break;
                }
            }
            start_part(ev.partIdx, ev.time);
            break;

          case SimEvent::Kind::JoinPhase: {
            PartRec& part = parts[ev.partIdx];
            QueryState& q = queries[part.queryIdx];
            if (faultsOn && (part.gen != q.gen || q.dead)) {
                // Stale join of a killed dispatch — its committed
                // cost was already released at the kill.
                part.cancelled = true;
                flight_sub(ev.machine, q.model,
                           "cancel with nothing in flight");
                break;
            }
            // The committed phase becomes real queued work here; the
            // subtraction mirrors the addition at fan-out dispatch
            // exactly (identical joinPhaseCostSeconds inputs).
            if (q.joinCommitted) {
                const double phase = machines[ev.machine]
                    .joinPhaseCostSeconds(q.size, q.model);
                pendingJoinCost[ev.machine] -= phase;
                if (mixOn)
                    pendingJoinByModel[ev.machine * numMix + q.model] -=
                        phase;
                q.joinCommitted = false;
            }
            if (faultsOn && engineEpoch[q.machine] != q.leaderEpoch) {
                // The leader restarted since dispatch: the pooled
                // embeddings of this query died with it.
                part.cancelled = true;
                flight_sub(ev.machine, q.model,
                           "cancel with nothing in flight");
                fail_query(part.queryIdx, ev.time);
                break;
            }
            start_part(ev.partIdx, ev.time);
            break;
          }

          case SimEvent::Kind::CpuRequest:
            scheduled.clear();
            if (machines[ev.machine].cpuRequestDone(ev.slot, ev.partIdx,
                                                    ev.time, scheduled))
                finish_part(ev.partIdx, ev.time, false);
            events.pushAll(scheduled, ev.machine,
                           engineEpoch[ev.machine]);
            break;

          case SimEvent::Kind::GpuQuery:
            scheduled.clear();
            machines[ev.machine].gpuQueryDone(ev.slot, ev.partIdx,
                                              ev.time, scheduled);
            finish_part(ev.partIdx, ev.time, true);
            events.pushAll(scheduled, ev.machine,
                           engineEpoch[ev.machine]);
            break;

          case SimEvent::Kind::Retry:
            // A client re-presents a shed or failed-over query after
            // its backoff.
            present(ev.partIdx, ev.time);
            break;

          case SimEvent::Kind::Fault:
          case SimEvent::Kind::HedgeCheck:
            drs_panic("fault events are handled before the switch");

          case SimEvent::Kind::Control:
          case SimEvent::Kind::MachineUp:
            drs_panic("scale events belong to the elastic driver");
        }
    }

    retire_books();
    drs_assert(parts.live() == 0, "a part never reached a terminal state");
    drs_assert(queries.live() == 0, "a query never settled");
    result.peakLiveParts = parts.peakLive();
    result.peakLiveQueries = queries.peakLive();
    result.peakPartChunks = parts.chunksAllocated();
    result.peakQueryChunks = queries.chunksAllocated();
    result.numQueries = result.fleetLatencySeconds.count();
    result.meanFanout = result.numDispatched > 0
        ? static_cast<double>(result.numParts) /
              static_cast<double>(result.numDispatched)
        : 0.0;
    result.spanSeconds = span.seconds();
    result.offeredQps = traceOfferedQps(trace);
    result.achievedQps = span.achievedQps(result.numQueries);
    if (cfg.overload.deadlineSeconds > 0.0 && result.spanSeconds > 0.0) {
        result.overload.goodputQps =
            result.overload.qualityWeight / result.spanSeconds;
        for (ClassOverloadStats& cs : result.overload.perClass)
            cs.goodputQps = cs.qualityWeight / result.spanSeconds;
    }

    const double full_span = lastEventTime - trace.front().arrivalSeconds;
    // A crash may have advanced an engine past the last traffic event;
    // the final advance must never move a clock backwards. Busy time
    // cannot accrue on an idle machine, so the integrals are unchanged.
    const double finalAdvance = std::max(lastEventTime, lastFaultAdvance);
    double util_sum = 0.0;
    for (size_t m = 0; m < machines.size(); m++) {
        machines[m].advanceTo(finalAdvance);
        MachineStats& stats = result.perMachine[m];
        stats.requestsDispatched = machines[m].requestsDispatched();
        stats.busyCoreSeconds = machines[m].busyCoreSeconds();
        stats.gpuBusySeconds = machines[m].gpuBusySeconds();
        if (full_span > 0.0) {
            const double cores = static_cast<double>(
                cfg.machines[m].cpu.platform().cores);
            stats.cpuUtilization =
                stats.busyCoreSeconds / (full_span * cores);
            stats.gpuUtilization = stats.gpuBusySeconds / full_span;
        }
        util_sum += stats.cpuUtilization;
    }
    result.meanCpuUtilization =
        util_sum / static_cast<double>(machines.size());

    // The three-way conservation algebra holds exactly on every run —
    // chaos or not — at any thread count.
    assertFaultConservation(result.overload, result.faults,
                            result.numDispatched, result.numCompleted,
                            trace.size());
    if (mixOn) {
        // The same algebra per model, plus the cross-model sum checks:
        // every query is exactly one model's, so the per-model books
        // must tile the fleet totals with nothing left over.
        uint64_t sum_offered = 0;
        uint64_t sum_completed = 0;
        for (const ModelStats& ms : result.perModel) {
            drs_assert(ms.offered ==
                           ms.completed + ms.droppedFinal + ms.lost,
                       "per-model conservation violated");
            sum_offered += ms.offered;
            sum_completed += ms.completed;
        }
        drs_assert(sum_offered == result.overload.offered,
                   "per-model offered books do not tile the fleet total");
        drs_assert(sum_completed == result.numCompleted,
                   "per-model completion books do not tile the fleet "
                   "total");
    }
    return result;
}

ClusterResult
ClusterSimulator::run(const QueryTrace& trace, const RoutingSpec& spec) const
{
    const std::unique_ptr<RoutingPolicy> policy = makeRoutingPolicy(
        spec, cfg.sharding.has_value() ? &*cfg.sharding : nullptr);
    return run(trace, *policy);
}

} // namespace deeprecsys
