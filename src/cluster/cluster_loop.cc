#include "cluster_loop.hh"

#include <algorithm>

#include "base/logging.hh"
#include "loadgen/query_stream.hh"
#include "obs/observer.hh"

namespace deeprecsys {

namespace {

/** Client backoff growth per retry attempt (OverloadConfig retries). */
constexpr double kRetryBackoffFactor = 2.0;

/**
 * Hand each fleet latency sample to the book its tag names, in fleet
 * order, then free the tags. Each book is reserved to exactly its
 * count, and it is the fleet book filtered in completion order, so
 * its samples and sum() are bitwise those of appending at each
 * completion.
 */
template <typename Stats>
void
fanOutLatencies(const SampleStats& fleet, std::vector<uint16_t>& tags,
                std::vector<Stats>& books)
{
    drs_assert(tags.size() == fleet.count(),
               "a measured completion has no latency tag");
    std::vector<size_t> counts(books.size(), 0);
    for (uint16_t tag : tags)
        counts[tag]++;
    for (size_t i = 0; i < books.size(); i++)
        books[i].latencySeconds.reserve(counts[i]);
    const std::vector<double>& samples = fleet.raw();
    for (size_t i = 0; i < tags.size(); i++)
        books[tags[i]].latencySeconds.add(samples[i]);
    std::vector<uint16_t>().swap(tags);
}

} // namespace

void
Membership::onEvent(ClusterLoop&, const SimEvent&)
{
    drs_panic("scale events belong to the elastic membership");
}

ClusterLoop::ClusterLoop(const ClusterConfig& cfg, const QueryTrace& trace,
                         RoutingPolicy& router, Membership& members,
                         obs::RunObserver* obs, ClusterResult& result)
    : cfg(cfg), trace(trace), obs(obs), result(result),
      t0(trace.empty() ? 0.0 : trace.front().arrivalSeconds),
      view(cfg.machines, t0),
      router(router), members(members), eagerClock(members.eagerClock()),
      queryBooks(members.queryBooks()), mixOn(!cfg.modelMix.empty()),
      numMix(std::max<size_t>(1, cfg.modelMix.size())),
      faultsOn(cfg.faults.enabled()), hedgeOn(cfg.hedge.enabled())
{
    const size_t n = cfg.machines.size();
    pendingJoins.assign(n, 0);
    downDepth.assign(n, 0);
    grayDepth.assign(n, 0);
    engineEpoch.assign(n, 0);
}

// ------------------------------------------------------ part plumbing

// The committed phase leaves the estimator's backlog exactly once,
// at its stored price: when it becomes real queued work, or when a
// failure kills the dispatch.
void
ClusterLoop::releaseJoinCost(QueryState& q)
{
    view.addJoinCost(q.machine, -q.joinCost);
    q.joinCost = 0;
}

// A part reaches its machine (after the forward hop, if any).
void
ClusterLoop::startPart(uint64_t part_idx, double now)
{
    if (obs)
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
        // Local embedding share only. Under the optimistic join the
        // leader also runs its dense stacks concurrently here; under
        // TwoStage the dense work waits for the join.
        spec.embFraction = part.embFraction;
        spec.leader = cfg.join == JoinModel::Optimistic && part.leader;
        spec.whole = false;
        break;
      case PartRec::Kind::FanDense:
        spec.embFraction = 0.0;
        spec.leader = true;
        spec.whole = false;
        break;
    }
    const uint32_t m = part.machine;
    view.engine(m).advanceTo(now);
    scheduled.clear();
    view.engine(m).admit(spec, now, scheduled);
    events.pushAll(scheduled, m, engineEpoch[m]);
}

void
ClusterLoop::completeQuery(uint64_t query_idx)
{
    QueryState& q = queries[query_idx];
    q.settled = true;
    result.numCompleted++;
    result.perMachine[q.machine].queriesCompleted++;
    if (queryBooks && mixOn)
        result.perModel[q.model].completed++;
    const double latency = q.joinTime - q.arrival;
    members.onCompletion(latency);
    if (q.measured) {
        result.fleetLatencySeconds.add(latency);
        latencyMachine.push_back(static_cast<uint16_t>(q.machine));
        if (queryBooks && mixOn)
            latencyModel.push_back(static_cast<uint16_t>(q.model));
        span.onCompletion(q.joinTime);
        if (cfg.overload.deadlineSeconds > 0.0) {
            result.overload.measuredCompleted++;
            ClassOverloadStats& cs = classStats(q.cls);
            cs.measuredCompleted++;
            if (latency <= cfg.overload.deadlineSeconds) {
                result.overload.completedWithinDeadline++;
                result.overload.qualityWeight += q.quality;
                cs.completedWithinDeadline++;
                cs.qualityWeight += q.quality;
            }
        }
    }
    lastEventTime = std::max(lastEventTime, q.joinTime);
    if (obs) {
        // The hops as the dispatch priced them, before NIC degradation.
        const double samples = static_cast<double>(q.size);
        obs->onQueryComplete(
            query_idx, q.stamps, q.size, q.numParts, q.measured,
            cfg.network.oneWaySeconds(samples *
                                      cfg.network.requestBytesPerSample),
            q.joinTime,
            cfg.network.oneWaySeconds(samples *
                                      cfg.network.responseBytesPerSample));
    }
    // The finishing part is still held, so the query is tested again
    // when its last part is released.
    checkDispatch(q);
}

// A part finished all of its local work.
void
ClusterLoop::finishPart(uint64_t part_idx, double now, bool gpu)
{
    PartRec& part = parts[part_idx];
    if (obs) {
        const obs::PartTimes times = obs::PartTimes::of(
            part.start,
            view.engine(part.machine).lastFinishedFirstServiceStart(), now);
        obs->onPartDone(part.queryIdx, part.machine, gpu, times);
        // Every finishing leader part stamps its query, a ghost of a
        // dispatch that failed over included.
        if (part.leader) {
            obs::QueryStamps& stamps = queries[part.queryIdx].stamps;
            (part.kind == PartRec::Kind::FanDense ? stamps.join
                                                  : stamps.leader) = times;
        }
    }
    view.flightSub(part.machine, "completion with nothing in flight");
    part.done = true;
    const uint32_t m = part.machine;
    deliverPart(part_idx, now);
    checkPart(part_idx);
    members.workDone(*this, m, now);
}

// A finished part's answer travels on: pooled embeddings to the
// leader (TwoStage fan-out), scores to the router otherwise.
void
ClusterLoop::deliverPart(uint64_t part_idx, double now)
{
    const PartRec& part = parts[part_idx];
    QueryState& q = queries[part.queryIdx];
    if (faultsOn || hedgeOn) {
        // A completion of a killed dispatch is a ghost: the query
        // already failed over (or was lost) and this part's share was
        // accounted at the kill.
        if (staleDispatch(part))
            return;
        if (part.partner != PartRec::kNoPartner) {
            if (parts[part.partner].done) {
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
        // The dense phase starts once the last part (the leader's own
        // hop-free) lands.
        const double to_leader = part.leader
            ? 0.0
            : cfg.network.oneWaySeconds(
                  static_cast<double>(q.size) *
                  cfg.network.embeddingBytesPerSample);
        q.leaderReady = std::max(q.leaderReady, now + to_leader);
        drs_assert(q.partsLeft > 0, "query with no pending parts");
        if (--q.partsLeft > 0)
            return;
        q.partsLeft = 1;    // the dense phase itself
        const uint64_t dense_idx = parts.push(
            {.queryIdx = part.queryIdx, .machine = q.machine,
             .kind = PartRec::Kind::FanDense, .embFraction = 0.0,
             .gen = q.gen});
        q.heldParts++;
        // The leader may already be draining; its join phase is
        // in-flight work and still runs there.
        drs_assert(pendingJoins[q.machine] > 0,
                   "join phase with no pending leadership");
        pendingJoins[q.machine]--;
        q.joinLeadership = false;
        view.flightAdd(q.machine);
        result.perMachine[q.machine].joinPhases++;
        events.push(q.leaderReady, SimEvent::Kind::JoinPhase, q.machine,
                    dense_idx);
        return;
    }

    // Whole parts, optimistic fan-out parts, and dense phases all
    // return scores to the router and join there.
    const double back = cfg.network.oneWaySeconds(
        static_cast<double>(q.size) * cfg.network.responseBytesPerSample);
    q.joinTime = std::max(q.joinTime, now + back);
    drs_assert(q.partsLeft > 0, "query with no pending parts");
    if (--q.partsLeft == 0)
        completeQuery(part.queryIdx);
}

// A failure destroyed query @p idx's current dispatch. Release its
// committed join books, then either fail over (schedule a re-present
// with exponential client backoff) or record the final loss. Callers
// guarantee the query is live (not dead, current generation);
// @p dispatched says whether the dying presentation was routed (an
// unroutable presentation never was).
void
ClusterLoop::failQuery(uint64_t idx, double now, bool dispatched)
{
    QueryState& q = queries[idx];
    q.dead = true;
    if (dispatched) {
        endedDispatches++;
        checkDispatch(q);
    }
    releaseJoinCost(q);
    if (q.joinLeadership) {
        drs_assert(pendingJoins[q.machine] > 0,
                   "join leadership with no pending join");
        pendingJoins[q.machine]--;
        q.joinLeadership = false;
        members.workDone(*this, q.machine, now);
    }
    if (q.failovers < cfg.faults.maxFailovers) {
        q.failovers++;
        result.faults.failovers++;
        const double delay = cfg.faults.failoverDelaySeconds *
            static_cast<double>(
                1u << std::min<uint32_t>(q.failovers - 1, 16));
        events.push(now + delay, SimEvent::Kind::Retry, 0, idx);
        if (obs)
            obs->onQueryFailover(idx, now, q.failovers, delay);
    } else {
        q.settled = true;
        queryChecks.push_back(idx);
        result.faults.lost++;
        result.faults.lostQueries.push_back(idx);
        if (queryBooks) {
            if (mixOn)
                result.perModel[q.model].lost++;
            result.machineOfQuery[idx] = ClusterResult::lostMachine;
        }
        if (obs)
            obs->onQueryLost(idx, now);
    }
}

bool
ClusterLoop::staleDispatch(const PartRec& part) const
{
    const QueryState& q = queries[part.queryIdx];
    return part.gen != q.gen || q.dead;
}

// A part of a dead dispatch reached its machine, or a join phase of
// one came due: it is dropped without running.
void
ClusterLoop::cancelPart(uint64_t part_idx, double now)
{
    PartRec& part = parts[part_idx];
    part.cancelled = true;
    checkPart(part_idx);
    view.flightSub(part.machine, "cancel with nothing in flight");
    members.workDone(*this, part.machine, now);
}

// A live part was destroyed (its machine crashed, or its forwarded RPC
// landed on a machine no longer serving). Decide the owning query's
// fate.
void
ClusterLoop::lostPartFate(uint64_t part_idx, double now)
{
    PartRec& part = parts[part_idx];
    part.cancelled = true;
    checkPart(part_idx);
    view.flightSub(part.machine, "lost part with nothing in flight");
    result.faults.partsLost++;
    if (staleDispatch(part))
        return;    // that dispatch already died
    if (part.partner != PartRec::kNoPartner) {
        const PartRec& twin = parts[part.partner];
        if (twin.done)
            return;    // the share already completed via the twin
        if (!twin.cancelled) {
            // The twin is still running and carries the share — the
            // hedge just saved this query from the crash.
            result.faults.hedgeSaves++;
            return;
        }
    }
    failQuery(part.queryIdx, now, true);
}

void
ClusterLoop::killEngine(uint32_t m, double now)
{
    lastFaultAdvance = std::max(lastFaultAdvance, now);
    lostBuf.clear();
    view.engine(m).crash(now, lostBuf);
    for (uint64_t lost_part : lostBuf)
        lostPartFate(lost_part, now);
}

// Tail-at-scale hedging: the query is still missing fan-out parts
// HedgeConfig::delaySeconds after dispatch. Duplicate each unfinished,
// unhedged, non-leader embedding part onto the least-loaded accepting
// replica of its tables and let the copies race.
void
ClusterLoop::hedgeQuery(uint64_t idx, double now)
{
    QueryState& q = queries[idx];
    const ShardPlacement& placement = cfg.sharding->placement;
    for (uint64_t pi = q.firstPart; pi < q.firstPart + q.numParts; pi++) {
        if (parts[pi].done || parts[pi].cancelled || parts[pi].leader ||
            parts[pi].partner != PartRec::kNoPartner ||
            parts[pi].kind != PartRec::Kind::FanEmb)
            continue;
        const uint32_t src = parts[pi].machine;
        const std::vector<uint32_t>& tables = parts[pi].tables;
        size_t best = view.numMachines();
        double best_load = 0.0;
        for (uint32_t m : placement.fewestHolders(tables)) {
            if (m == src || !view.accepting(m) ||
                !placement.holdsAll(m, tables))
                continue;
            // The router's load signal, lowest index winning ties.
            const double load = view.loadSignal(m);
            if (best == view.numMachines() || load < best_load) {
                best = m;
                best_load = load;
            }
        }
        if (best == view.numMachines())
            continue;    // no surviving replica to hedge onto
        const uint32_t to = static_cast<uint32_t>(best);
        const uint64_t dup_idx = parts.push(
            {.queryIdx = idx, .machine = to, .kind = PartRec::Kind::FanEmb,
             .embFraction = parts[pi].embFraction, .partner = pi,
             .leader = false, .hedged = true, .tables = parts[pi].tables,
             .gen = q.gen});
        parts[pi].partner = dup_idx;
        q.heldParts++;
        view.flightAdd(to);
        result.perMachine[to].remoteParts++;
        result.numParts++;
        if (queryBooks)
            partMachineRows[idx].push_back(to);
        result.faults.hedged++;
        if (obs)
            obs->onPartHedged(idx, now, src, to);
        const double forward = cfg.network.oneWaySeconds(
            static_cast<double>(q.size) *
            cfg.network.requestBytesPerSample);
        if (forward > 0.0) {
            events.push(now + forward, SimEvent::Kind::PartArrival, to,
                        dup_idx);
        } else {
            startPart(dup_idx, now);
        }
    }
}

// Present query @p idx to the router at @p now — its trace arrival, or
// a client retry of an earlier shed or failed-over dispatch. The
// router's overload verdict either drops it (final, or with a retry
// scheduled), degrades it (shrinks the size dispatched downstream), or
// passes it through. Latency always counts from the original trace
// arrival, so a retried completion pays its backoff — retries buy
// availability, not goodput.
void
ClusterLoop::present(uint64_t idx, double now)
{
    const Query& in = trace[idx];
    QueryState& q = queries[idx];
    // Every presentation is traffic, and every measured one opens the
    // span, so goodput is charged against real offered time even when
    // the query is shed or unroutable.
    lastEventTime = std::max(lastEventTime, now);
    if (idx >= warmup)
        span.onArrival(in.arrivalSeconds);
    q.model = in.model;
    q.cls = cfg.overload.priorityClasses > 1
        ? std::min<uint32_t>(in.priorityClass,
                             cfg.overload.priorityClasses - 1)
        : 0;
    ClassOverloadStats& cs = classStats(q.cls);
    if (q.attempt == 0 && q.failovers == 0)
        cs.offered++;

    // With every machine down (fault injection) admission has nothing
    // to price against: the query is unroutable below, as it is
    // without admission, never shed.
    Query served = in;
    double quality = 1.0;
    if (admission && view.acceptingCount() > 0) {
        const AdmissionDecision verdict = admission->decide(in, view);
        if (!verdict.admit) {
            // Shed at the router: nothing reaches a machine.
            result.overload.dropped++;
            cs.dropped++;
            if (verdict.retryable && q.attempt < cfg.overload.maxRetries) {
                const double delay = retryDelaySeconds(
                    cfg.overload.retryBackoffSeconds, kRetryBackoffFactor,
                    cfg.overload.retryJitterFraction,
                    verdict.retryAfterSeconds, in.id, q.attempt);
                q.attempt++;
                result.overload.retried++;
                cs.retried++;
                events.push(now + delay, SimEvent::Kind::Retry, 0, idx);
                if (obs)
                    obs->onQueryRetry(idx, now, q.attempt, delay);
            } else {
                q.settled = true;
                queryChecks.push_back(idx);
                result.overload.droppedFinal++;
                cs.droppedFinal++;
                if (queryBooks) {
                    if (mixOn)
                        result.perModel[in.model].droppedFinal++;
                    result.machineOfQuery[idx] =
                        ClusterResult::droppedMachine;
                }
                result.overload.droppedQueries.push_back(idx);
                if (obs)
                    obs->onQueryDrop(idx, now, in.size);
            }
            return;
        }
        if (verdict.servedSize < in.size)
            served.size = verdict.servedSize;
        quality = verdict.quality;
    }

    // Route before committing the admission books: under fault
    // injection the query may be unservable (no accepting replica set
    // covers its tables), which is neither an admission nor a drop —
    // admission never saw a servable query.
    std::vector<ShardTarget> plan;
    if (!faultsOn || view.acceptingCount() > 0)
        plan = router.routeParts(served, view);
    if (plan.empty()) {
        drs_assert(faultsOn, "policy returned no targets");
        result.faults.unroutable++;
        failQuery(idx, now, false);
        return;
    }
    if (admission && served.size < in.size) {
        result.overload.degraded++;
        cs.degraded++;
        result.overload.degradedQueries.push_back({idx, served.size});
        if (obs)
            obs->onQueryDegrade(idx, now, in.size, served.size);
    }
    result.overload.admitted++;
    cs.admitted++;

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

    result.numDispatched++;
    if (queryBooks && mixOn)
        result.perModel[q.model].dispatched++;
    const double forward = cfg.network.oneWaySeconds(
        static_cast<double>(served.size) *
        cfg.network.requestBytesPerSample);
    if (obs) {
        q.stamps.dispatch = now;
        obs->onQueryDispatch(served.size);
    }

    if (queryBooks) {
        std::vector<uint32_t>& row = partMachineRows[idx];
        row.reserve(row.size() + plan.size());
    }
    size_t leaders = 0;
    for (ShardTarget& target : plan) {
        drs_assert(target.machine < view.numMachines(),
                   "policy routed out of range");
        const uint32_t m = target.machine;
        drs_assert(view.accepting(m),
                   "policy routed to a non-accepting machine");
        view.engine(m).advanceTo(now);
        view.flightAdd(m);
        if (target.leader) {
            leaders++;
            q.machine = m;
            q.leaderEpoch = engineEpoch[m];
            if (queryBooks)
                result.machineOfQuery[idx] = m;
            result.perMachine[m].queriesDispatched++;
        } else {
            result.perMachine[m].remoteParts++;
        }
        if (queryBooks)
            partMachineRows[idx].push_back(m);

        const uint64_t part_idx = parts.push(
            {.queryIdx = idx, .machine = m,
             .kind = plan.size() == 1 ? PartRec::Kind::Whole
                                      : PartRec::Kind::FanEmb,
             .embFraction = target.embFraction, .leader = target.leader,
             .tables = hedgeOn ? std::move(target.tables)
                               : std::vector<uint32_t>{},
             .gen = q.gen});
        q.heldParts++;
        result.numParts++;
        if (forward > 0.0) {
            events.push(now + forward, SimEvent::Kind::PartArrival, m,
                        part_idx);
        } else {
            startPart(part_idx, now);
        }
    }
    drs_assert(leaders == 1, "plan needs exactly one leader");
    if (plan.size() > 1 && cfg.join == JoinModel::TwoStage) {
        pendingJoins[q.machine]++;
        q.joinLeadership = true;
    }
    // Commit the leader's future dense phase to the estimator's
    // second-order backlog (released exactly once, see
    // releaseJoinCost).
    if (trackJoinCost && plan.size() > 1) {
        q.joinCost =
            view.engine(q.machine).joinPhaseCostSeconds(served.size, q.model);
        view.addJoinCost(q.machine, q.joinCost);
    }
    // Arm the tail-at-scale hedge for fanned-out dispatches; the check
    // goes stale if the query completes or fails first.
    if (hedgeOn && plan.size() > 1) {
        q.hedgeChecks++;
        events.push(now + cfg.hedge.delaySeconds, SimEvent::Kind::HedgeCheck,
                    0, idx, q.gen);
    }
}

// ------------------------------------------------------------- events

// Fault transitions are environment, not traffic: they never stretch
// the measured span or the utilization windows. Every window is
// depth-counted, so overlapping windows (random + correlated) extend:
// the first open acts, the last close clears.
void
ClusterLoop::onFault(const FaultEvent& fe, double now)
{
    const uint32_t m = fe.machine;
    switch (fe.kind) {
      case FaultEvent::Kind::Crash:
        // Fail-stop: completions the dead engine already scheduled
        // are fenced off by the epoch; the membership decides what
        // else dies.
        if (downDepth[m]++ > 0)
            return;
        result.faults.crashes++;
        engineEpoch[m]++;
        if (obs)
            obs->onMachineDown(m, now);
        members.crash(*this, m, now);
        return;
      case FaultEvent::Kind::Recover:
        drs_assert(downDepth[m] > 0, "recovery of a machine never down");
        if (--downDepth[m] > 0)
            return;
        members.recover(*this, m);
        result.faults.recoveries++;
        if (obs)
            obs->onMachineUp(m, now);
        return;
      case FaultEvent::Kind::GrayStart:
        if (grayDepth[m]++ == 0) {
            view.engine(m).setServiceFactor(cfg.faults.graySlowdownFactor);
            result.faults.grayWindows++;
        }
        return;
      case FaultEvent::Kind::GrayEnd:
        if (--grayDepth[m] == 0)
            view.engine(m).setServiceFactor(1.0);
        return;
    }
}

void
ClusterLoop::onTraffic(const SimEvent& ev)
{
    const uint32_t m = ev.machine;
    switch (ev.kind) {
      case SimEvent::Kind::PartArrival:
        if (faultsOn && staleDispatch(parts[ev.partIdx])) {
            // The dispatch died while this RPC was in flight; the
            // client cancelled it.
            cancelPart(ev.partIdx, ev.time);
            return;
        }
        if (faultsOn && !members.serving(*this, m)) {
            // Forwarded onto a machine that went down en route.
            lostPartFate(ev.partIdx, ev.time);
            return;
        }
        startPart(ev.partIdx, ev.time);
        return;

      case SimEvent::Kind::JoinPhase: {
        const PartRec& part = parts[ev.partIdx];
        QueryState& q = queries[part.queryIdx];
        if (faultsOn && staleDispatch(part)) {
            // Stale join of a killed dispatch — its committed cost was
            // already released at the kill.
            cancelPart(ev.partIdx, ev.time);
            return;
        }
        releaseJoinCost(q);
        if (faultsOn && engineEpoch[q.machine] != q.leaderEpoch) {
            // The leader restarted since dispatch: the pooled
            // embeddings of this query died with it.
            cancelPart(ev.partIdx, ev.time);
            failQuery(part.queryIdx, ev.time, true);
            return;
        }
        startPart(ev.partIdx, ev.time);
        return;
      }

      case SimEvent::Kind::CpuRequest:
        view.engine(m).advanceTo(ev.time);
        scheduled.clear();
        if (view.engine(m).cpuRequestDone(ev.slot, ev.partIdx, ev.time,
                                          scheduled))
            finishPart(ev.partIdx, ev.time, false);
        events.pushAll(scheduled, m, engineEpoch[m]);
        return;

      case SimEvent::Kind::GpuQuery:
        view.engine(m).advanceTo(ev.time);
        scheduled.clear();
        view.engine(m).gpuQueryDone(ev.slot, ev.partIdx, ev.time, scheduled);
        finishPart(ev.partIdx, ev.time, true);
        events.pushAll(scheduled, m, engineEpoch[m]);
        return;

      case SimEvent::Kind::Retry:
        // A client re-presents a shed or failed-over query after its
        // backoff.
        present(ev.partIdx, ev.time);
        return;

      case SimEvent::Kind::Control:
      case SimEvent::Kind::MachineUp:
        members.onEvent(*this, ev);
        return;

      case SimEvent::Kind::Fault:
      case SimEvent::Kind::HedgeCheck:
        drs_panic("environment events are handled before traffic");
    }
}

// A part turning terminal may release it, and its twin, which waited
// for it.
void
ClusterLoop::checkPart(uint64_t part_idx)
{
    partChecks.push_back(part_idx);
    const uint64_t twin = parts[part_idx].partner;
    if (twin != PartRec::kNoPartner)
        partChecks.push_back(twin);
}

// The end of a dispatch may release every part of it that is already
// terminal: its fan-out parts and their hedge twins. Its dense phase,
// if any, turns terminal in the same event as the dispatch ends, or
// later, so checkPart covers it (checks run after the event).
void
ClusterLoop::checkDispatch(const QueryState& q)
{
    for (uint64_t pi = q.firstPart; pi < q.firstPart + q.numParts; pi++)
        checkPart(pi);
}

bool
ClusterLoop::dispatchOver(const PartRec& part) const
{
    return staleDispatch(part) || queries[part.queryIdx].partsLeft == 0;
}

void
ClusterLoop::releasePart(uint64_t part_idx)
{
    const PartRec* part = parts.find(part_idx);
    if (part == nullptr ||
        !parts.unreachable(*part, [this](const PartRec& p) {
            return dispatchOver(p);
        }))
        return;
    const uint64_t query_idx = part->queryIdx;
    parts.release(part_idx);
    if (--queries[query_idx].heldParts == 0)
        queryChecks.push_back(query_idx);
}

// Release every checked record whose rule now holds: parts first, as a
// query is released only after its last part.
void
ClusterLoop::releaseRecords()
{
    for (uint64_t part_idx : partChecks)
        releasePart(part_idx);
    partChecks.clear();
    for (uint64_t idx : queryChecks) {
        const QueryState* q = queries.find(idx);
        if (q != nullptr && QueryBook::over(*q))
            queries.release(idx);
    }
    queryChecks.clear();
}

// Records are released out of order as soon as no reader can reach
// them (PartBook::unreachable, QueryBook::over); the windows then
// advance past released head ids (PartBook::retire,
// QueryBook::retire). Every record is released by then, so a held head
// whose rule holds means a missed release point, and that panics.
// Nothing appends to a retired query's part machines, and queries
// retire in trace order, so each row leaves for the flat book as its
// query retires.
void
ClusterLoop::retireBooks()
{
    releaseRecords();
    parts.retire([this](const PartRec& p) { return dispatchOver(p); },
                 [](const PartRec&) {
                     drs_panic("an unreachable part was never released");
                 });
    if (queries.retire() && queryBooks) {
        partMachineRows.retireTo(
            queries.lowId(), [&](const std::vector<uint32_t>& row) {
                result.partMachinesOfQuery.appendRow(row);
            });
    }
}

void
ClusterLoop::run()
{
    validateTraceLength(trace.size());
    const size_t n = cfg.machines.size();
    result.perMachine.resize(n);
    if (queryBooks)
        result.perModel.resize(cfg.modelMix.size());
    if (cfg.sharding.has_value()) {
        for (size_t m = 0; m < n; m++)
            result.perMachine[m].embBytesStored =
                cfg.sharding->placement.bytesOnMachine(m);
    }
    if (trace.empty())
        return;

    lastEventTime = t0;
    lastFaultAdvance = t0;
    warmup = warmupCount(trace.size());
    result.fleetLatencySeconds.reserve(trace.size() - warmup);
    latencyMachine.reserve(trace.size() - warmup);
    if (queryBooks && mixOn)
        latencyModel.reserve(trace.size() - warmup);

    // Pre-size the heap: per machine at most one completion per busy
    // core plus one offload, plus forwarded parts in flight.
    size_t total_cores = 0;
    for (const SimConfig& machine : cfg.machines)
        total_cores += machine.cpu.platform().cores;
    events.reserve(std::min(trace.size(), total_cores + 256));
    scheduled.reserve(256);
    if (faultsOn) {
        faultSchedule = buildFaultSchedule(
            cfg.faults, static_cast<uint32_t>(n), t0,
            trace.back().arrivalSeconds);
        for (size_t i = 0; i < faultSchedule.size(); i++)
            events.push(faultSchedule[i].time, SimEvent::Kind::Fault,
                        faultSchedule[i].machine, i);
    }

    // Overload control: only constructed when enabled, so the disabled
    // path is the plain driver plus one boolean test per arrival.
    if (cfg.overload.enabled()) {
        // A sharded tier serves roughly 1/N of a query's embedding
        // work per machine; tell the estimator so heavy queries are
        // not priced as if one machine ran the whole model.
        const double share =
            cfg.sharding ? 1.0 / static_cast<double>(n) : 1.0;
        admission.emplace(cfg.overload, cfg.machines, share, cfg.network,
                          cfg.join);
        trackJoinCost = cfg.join == JoinModel::TwoStage;
        // Per-class accounting rides with deadline/goodput accounting.
        if (cfg.overload.deadlineSeconds > 0.0)
            result.overload.perClass.resize(cfg.overload.priorityClasses);
    }
    if (queryBooks) {
        result.machineOfQuery.resize(trace.size());
        result.partMachinesOfQuery.reserveRows(trace.size());
    }

    if (obs) {
        obs->onRunStart(t0);
        router.attachObserver(obs);
    }
    members.start(*this);

    while (nextArrival < trace.size() || !events.empty()) {
        retireBooks();
        const bool takeArrival = nextArrival < trace.size() &&
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
            if (queryBooks)
                partMachineRows.push({});
            drs_assert(in.model < numMix,
                       "query's model is outside the tier's mix");
            result.overload.offered++;
            if (queryBooks && mixOn)
                result.perModel[in.model].offered++;
            present(nextArrival, in.arrivalSeconds);
            nextArrival++;
            continue;
        }

        const SimEvent ev = events.pop();

        // Fault transitions and hedge checks are environment, not
        // traffic: they never stretch the measured span or the
        // utilization windows.
        if (ev.kind == SimEvent::Kind::Fault) {
            onFault(faultSchedule[ev.partIdx], ev.time);
            continue;
        }
        if (ev.kind == SimEvent::Kind::HedgeCheck) {
            QueryState& hq = queries[ev.partIdx];
            hq.hedgeChecks--;
            queryChecks.push_back(ev.partIdx);
            if (ev.slot == hq.gen && !hq.dead && hq.partsLeft > 0)
                hedgeQuery(ev.partIdx, ev.time);
            continue;
        }
        // A completion stamped by a dead engine incarnation is a
        // ghost: the crash already accounted for its part.
        if (faultsOn && ev.epoch != engineEpoch[ev.machine] &&
            (ev.kind == SimEvent::Kind::CpuRequest ||
             ev.kind == SimEvent::Kind::GpuQuery))
            continue;

        if (eagerClock)
            view.engine(ev.machine).advanceTo(ev.time);
        lastEventTime = std::max(lastEventTime, ev.time);
        onTraffic(ev);
    }

    members.finish(*this);
    finishBooks();
}

void
ClusterLoop::finishBooks()
{
    retireBooks();
    drs_assert(parts.live() == 0, "a part never reached a terminal state");
    drs_assert(queries.live() == 0, "a query never settled");
    result.peakLiveParts = parts.peakLive();
    result.peakLiveQueries = queries.peakLive();
    result.peakHeldParts = parts.peakHeld();
    result.peakHeldQueries = queries.peakHeld();
    result.peakPartChunks = parts.chunksAllocated();
    result.peakQueryChunks = queries.chunksAllocated();
    result.numQueries = result.fleetLatencySeconds.count();
    fanOutLatencies(result.fleetLatencySeconds, latencyMachine,
                    result.perMachine);
    if (queryBooks && mixOn)
        fanOutLatencies(result.fleetLatencySeconds, latencyModel,
                        result.perModel);
    result.meanFanout = result.numDispatched > 0
        ? static_cast<double>(result.numParts) /
              static_cast<double>(result.numDispatched)
        : 0.0;
    result.spanSeconds = span.seconds();
    result.offeredQps = traceOfferedQps(trace);
    result.achievedQps = span.achievedQps(result.numQueries);
    if (cfg.overload.deadlineSeconds > 0.0 && span.seconds() > 0.0) {
        result.overload.goodputQps =
            result.overload.qualityWeight / span.seconds();
        for (ClassOverloadStats& cs : result.overload.perClass)
            cs.goodputQps = cs.qualityWeight / span.seconds();
    }

    // A crash may have advanced an engine past the last traffic event;
    // the final advance must never move a clock backwards. Busy time
    // cannot accrue on an idle machine, so the integrals are unchanged.
    const double full_span = lastEventTime - t0;
    const double finalAdvance = std::max(lastEventTime, lastFaultAdvance);
    double util_sum = 0.0;
    for (size_t m = 0; m < view.numMachines(); m++) {
        view.engine(m).advanceTo(finalAdvance);
        MachineStats& stats = result.perMachine[m];
        stats.requestsDispatched = view.engine(m).requestsDispatched();
        stats.busyCoreSeconds = view.engine(m).busyCoreSeconds();
        stats.gpuBusySeconds = view.engine(m).gpuBusySeconds();
        const double billed = members.billedSeconds(m, full_span);
        if (billed > 0.0) {
            const double cores = static_cast<double>(
                cfg.machines[m].cpu.platform().cores);
            stats.cpuUtilization = stats.busyCoreSeconds / (billed * cores);
            stats.gpuUtilization = stats.gpuBusySeconds / billed;
        }
        util_sum += stats.cpuUtilization;
    }
    result.meanCpuUtilization =
        util_sum / static_cast<double>(view.numMachines());

    // The three-way conservation algebra holds exactly on every run —
    // chaos or not — at any thread count, and each per-query log names
    // exactly the queries its counter counts.
    assertFaultConservation(result.overload, result.faults,
                            result.numDispatched, result.numCompleted,
                            trace.size());
    drs_assert(result.overload.droppedQueries.size() ==
                   result.overload.droppedFinal,
               "drop log does not match the final-drop count");
    drs_assert(result.overload.degradedQueries.size() ==
                   result.overload.degraded,
               "degrade log does not match the degraded count");
    drs_assert(result.faults.lostQueries.size() == result.faults.lost,
               "loss log does not match the lost count");
    if (queryBooks && mixOn) {
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
}

} // namespace deeprecsys
