#include "cluster_loop.hh"

#include <algorithm>

#include "base/logging.hh"
#include "loadgen/query_stream.hh"
#include "obs/observer.hh"

namespace deeprecsys {

namespace {

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
      view(cfg.machines), router(router), members(members),
      queryBooks(members.queryBooks()), mixOn(!cfg.modelMix.empty()),
      numMix(std::max<size_t>(1, cfg.modelMix.size())),
      faultsOn(cfg.faults.enabled()), hedgeOn(cfg.hedge.enabled())
{
    const size_t n = cfg.machines.size();
    pendingJoins.assign(n, 0);
    downDepth.assign(n, 0);
    grayDepth.assign(n, 0);
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

uint64_t
ClusterLoop::pushPart(uint64_t query, PartRec rec)
{
    QueryState& q = queries[query];
    const uint64_t id = partId(query, q.parts.size());
    q.parts.push_back(std::move(rec));
    q.liveParts++;
    return id;
}

// The query may be released once its last live part ends.
void
ClusterLoop::partEnded(uint64_t query)
{
    QueryState& q = queries[query];
    drs_assert(q.liveParts > 0, "a part turned terminal twice");
    if (--q.liveParts == 0)
        queryChecks.push_back(query);
}

// A part reaches its machine (after the forward hop, if any).
void
ClusterLoop::startPart(uint64_t part_id, double now)
{
    QueryState& q = queries[queryOfPart(part_id)];
    PartRec& part = q.parts[posOfPart(part_id)];
    if (obs)
        part.start = now;
    const PartSpec spec{.partIdx = part_id,
                        .samples = q.size,
                        .embFraction = part.embFraction,
                        .kind = part.kind,
                        .model = q.model};
    const uint32_t m = part.machine;
    scheduled.clear();
    view.engine(m).admit(spec, now, scheduled);
    events.pushAll(scheduled, m, view.engine(m).epoch());
}

void
ClusterLoop::completeQuery(uint64_t query)
{
    QueryState& q = queries[query];
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
        // The request and response hops, as the dispatch priced them.
        const double samples = static_cast<double>(q.size);
        obs->onQueryComplete(
            q.traceIdx, q.stamps, q.size, q.numParts, q.measured,
            cfg.network.oneWaySeconds(samples *
                                      cfg.network.requestBytesPerSample),
            q.joinTime,
            cfg.network.oneWaySeconds(samples *
                                      cfg.network.responseBytesPerSample));
    }
    queryChecks.push_back(query);
}

// A part finished all of its local work.
void
ClusterLoop::finishPart(uint64_t part_id, double now, bool gpu)
{
    const uint64_t query = queryOfPart(part_id);
    QueryState& q = queries[query];
    PartRec& part = q.parts[posOfPart(part_id)];
    if (obs) {
        const obs::PartTimes times = obs::PartTimes::of(
            part.start,
            view.engine(part.machine).lastFinishedFirstServiceStart(), now);
        obs->onPartDone(q.traceIdx, part.machine, gpu, times);
        // Every finishing leader part stamps its query, a ghost of a
        // dispatch that failed over included.
        if (part.leader)
            (part.kind == PartKind::Dense ? q.stamps.join
                                                  : q.stamps.leader) = times;
    }
    view.flightSub(part.machine, "completion with nothing in flight");
    part.done = true;
    partEnded(query);
    const uint32_t m = part.machine;
    deliverPart(part_id, now);
    members.workDone(*this, m, now);
}

// A finished part's answer travels on: pooled embeddings to the
// leader (a fan-out's embedding parts), scores to the router otherwise.
void
ClusterLoop::deliverPart(uint64_t part_id, double now)
{
    const uint64_t query = queryOfPart(part_id);
    QueryState& q = queries[query];
    const PartRec& part = q.parts[posOfPart(part_id)];
    if (faultsOn || hedgeOn) {
        // A completion of a killed dispatch is a ghost: the query
        // already failed over (or was lost) and this part's share was
        // accounted at the kill.
        if (staleDispatch(part_id))
            return;
        if (part.partner != PartRec::kNoPartner) {
            if (q.parts[part.partner].done) {
                // The twin got here first; this copy's answer is
                // discarded (tied-request loser).
                result.faults.hedgeWasted++;
                return;
            }
            if (part.hedged)
                result.faults.hedgeWins++;
        }
    }

    if (part.kind == PartKind::Embedding) {
        // The dense phase starts once the last part (the leader's own
        // hop-free) lands. Its push may move q.parts, so nothing reads
        // part after it.
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
        const uint64_t dense_id = pushPart(
            query, {.machine = q.machine, .kind = PartKind::Dense,
                    .embFraction = 0.0, .gen = q.gen});
        // The leader may already be draining; its join phase is
        // in-flight work and still runs there.
        drs_assert(pendingJoins[q.machine] > 0,
                   "join phase with no pending leadership");
        pendingJoins[q.machine]--;
        q.joinLeadership = false;
        view.flightAdd(q.machine);
        result.perMachine[q.machine].joinPhases++;
        events.push(q.leaderReady, SimEvent::Kind::JoinPhase, q.machine,
                    dense_id);
        return;
    }

    // Whole parts and dense phases return scores to the router.
    const double back = cfg.network.oneWaySeconds(
        static_cast<double>(q.size) * cfg.network.responseBytesPerSample);
    q.joinTime = std::max(q.joinTime, now + back);
    drs_assert(q.partsLeft > 0, "query with no pending parts");
    if (--q.partsLeft == 0)
        completeQuery(query);
}

// A failure destroyed @p query's current presentation. Move its
// generation on, so every part and hedge check of the dying dispatch
// is stale, release its committed join books, then either fail over
// (schedule a re-present with exponential client backoff) or record
// the final loss. Callers guarantee the presentation is current.
void
ClusterLoop::failQuery(uint64_t query, double now)
{
    QueryState& q = queries[query];
    q.gen++;
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
        events.push(now + delay, SimEvent::Kind::Retry, 0, query);
        if (obs)
            obs->onQueryFailover(q.traceIdx, now, q.failovers, delay);
    } else {
        q.settled = true;
        queryChecks.push_back(query);
        result.faults.lost++;
        result.faults.lostQueries.push_back(q.traceIdx);
        if (queryBooks) {
            if (mixOn)
                result.perModel[q.model].lost++;
            result.machineOfQuery[q.traceIdx] = ClusterResult::lostMachine;
        }
        if (obs)
            obs->onQueryLost(q.traceIdx, now);
    }
}

bool
ClusterLoop::staleDispatch(uint64_t part_id) const
{
    const QueryState& q = queries[queryOfPart(part_id)];
    return q.parts[posOfPart(part_id)].gen != q.gen;
}

// A part of a dead dispatch reached its machine, or a join phase of
// one came due: it is dropped without running.
void
ClusterLoop::cancelPart(uint64_t part_id, double now)
{
    const uint64_t query = queryOfPart(part_id);
    PartRec& part = queries[query].parts[posOfPart(part_id)];
    part.cancelled = true;
    partEnded(query);
    const uint32_t m = part.machine;
    view.flightSub(m, "cancel with nothing in flight");
    members.workDone(*this, m, now);
}

// A live part was destroyed (its machine crashed, or its forwarded RPC
// landed on a machine no longer serving). Decide the owning query's
// fate.
void
ClusterLoop::lostPartFate(uint64_t part_id, double now)
{
    const uint64_t query = queryOfPart(part_id);
    QueryState& q = queries[query];
    PartRec& part = q.parts[posOfPart(part_id)];
    part.cancelled = true;
    partEnded(query);
    view.flightSub(part.machine, "lost part with nothing in flight");
    result.faults.partsLost++;
    if (staleDispatch(part_id))
        return;    // that dispatch already died
    if (part.partner != PartRec::kNoPartner) {
        const PartRec& twin = q.parts[part.partner];
        if (twin.done)
            return;    // the share already completed via the twin
        if (!twin.cancelled) {
            // The twin is still running and carries the share — the
            // hedge just saved this query from the crash.
            result.faults.hedgeSaves++;
            return;
        }
    }
    failQuery(query, now);
}

void
ClusterLoop::killEngine(uint32_t m, double now)
{
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
ClusterLoop::hedgeQuery(uint64_t query, double now)
{
    QueryState& q = queries[query];
    const ShardPlacement& placement = cfg.sharding->placement;
    for (uint32_t pos = q.firstPart; pos < q.firstPart + q.numParts; pos++) {
        // Every read of the original comes before the twin's push.
        PartRec& orig = q.parts[pos];
        if (orig.done || orig.cancelled || orig.leader ||
            orig.partner != PartRec::kNoPartner ||
            orig.kind != PartKind::Embedding)
            continue;
        const uint32_t src = orig.machine;
        const std::vector<uint32_t>& tables = orig.tables;
        const size_t best = singleHopReplica(view, placement, tables, src);
        if (best == view.numMachines())
            continue;    // no surviving replica to hedge onto
        const uint32_t to = static_cast<uint32_t>(best);
        orig.partner = static_cast<uint32_t>(q.parts.size());
        const uint64_t dup_id = pushPart(
            query, {.machine = to, .kind = PartKind::Embedding,
                    .embFraction = orig.embFraction, .partner = pos,
                    .leader = false, .hedged = true, .tables = tables,
                    .gen = q.gen});
        view.flightAdd(to);
        result.perMachine[to].remoteParts++;
        result.numParts++;
        result.faults.hedged++;
        if (obs)
            obs->onPartHedged(q.traceIdx, now, src, to);
        const double forward = cfg.network.oneWaySeconds(
            static_cast<double>(q.size) *
            cfg.network.requestBytesPerSample);
        if (forward > 0.0) {
            events.push(now + forward, SimEvent::Kind::PartArrival, to,
                        dup_id);
        } else {
            startPart(dup_id, now);
        }
    }
}

// Present @p query to the router at @p now — its trace arrival, or
// a client retry of an earlier shed or failed-over dispatch. The
// router's overload verdict either drops it (final, or with a retry
// scheduled), degrades it (shrinks the size dispatched downstream), or
// passes it through. Latency always counts from the original trace
// arrival, so a retried completion pays its backoff — retries buy
// availability, not goodput.
void
ClusterLoop::present(uint64_t query, double now)
{
    QueryState& q = queries[query];
    const uint64_t idx = q.traceIdx;
    const Query& in = trace[idx];
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
                    verdict.retryAfterSeconds, in.id, q.attempt);
                q.attempt++;
                result.overload.retried++;
                cs.retried++;
                events.push(now + delay, SimEvent::Kind::Retry, 0, query);
                if (obs)
                    obs->onQueryRetry(idx, now, q.attempt, delay);
            } else {
                q.settled = true;
                queryChecks.push_back(query);
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
        failQuery(query, now);
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
    q.firstPart = static_cast<uint32_t>(q.parts.size());
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

    q.parts.reserve(q.parts.size() + plan.size());
    size_t leaders = 0;
    for (ShardTarget& target : plan) {
        drs_assert(target.machine < view.numMachines(),
                   "policy routed out of range");
        const uint32_t m = target.machine;
        drs_assert(view.accepting(m),
                   "policy routed to a non-accepting machine");
        view.flightAdd(m);
        if (target.leader) {
            leaders++;
            q.machine = m;
            q.leaderEpoch = view.engine(m).epoch();
            if (queryBooks)
                result.machineOfQuery[idx] = m;
            result.perMachine[m].queriesDispatched++;
        } else {
            result.perMachine[m].remoteParts++;
        }

        const uint64_t part_id = pushPart(
            query, {.machine = m,
                    .kind = plan.size() == 1 ? PartKind::Whole
                                             : PartKind::Embedding,
                    .embFraction = target.embFraction,
                    .leader = target.leader,
                    .tables = hedgeOn ? std::move(target.tables)
                                      : std::vector<uint32_t>{},
                    .gen = q.gen});
        result.numParts++;
        if (forward > 0.0) {
            events.push(now + forward, SimEvent::Kind::PartArrival, m,
                        part_id);
        } else {
            startPart(part_id, now);
        }
    }
    drs_assert(leaders == 1, "plan needs exactly one leader");
    if (plan.size() > 1) {
        pendingJoins[q.machine]++;
        q.joinLeadership = true;
        // Commit the leader's future dense phase to the estimator's
        // second-order backlog (released exactly once, see
        // releaseJoinCost).
        if (admission) {
            q.joinCost = view.engine(q.machine).joinPhaseCostSeconds(
                served.size, q.model);
            view.addJoinCost(q.machine, q.joinCost);
        }
    }
    // Arm the tail-at-scale hedge for fanned-out dispatches; the check
    // goes stale if the query completes or fails first.
    if (hedgeOn && plan.size() > 1) {
        q.hedgeChecks++;
        events.push(now + cfg.hedge.delaySeconds, SimEvent::Kind::HedgeCheck,
                    0, query, q.gen);
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
        // Fail-stop: the membership decides what dies; completions a
        // killed engine already scheduled are fenced off by its epoch.
        if (downDepth[m]++ > 0)
            return;
        result.faults.crashes++;
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
        if (faultsOn && staleDispatch(ev.partIdx)) {
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
        const uint64_t query = queryOfPart(ev.partIdx);
        QueryState& q = queries[query];
        if (faultsOn && staleDispatch(ev.partIdx)) {
            // Stale join of a killed dispatch — its committed cost was
            // already released at the kill.
            cancelPart(ev.partIdx, ev.time);
            return;
        }
        releaseJoinCost(q);
        if (faultsOn && view.engine(q.machine).epoch() != q.leaderEpoch) {
            // The leader restarted since dispatch: the pooled
            // embeddings of this query died with it.
            cancelPart(ev.partIdx, ev.time);
            failQuery(query, ev.time);
            return;
        }
        startPart(ev.partIdx, ev.time);
        return;
      }

      case SimEvent::Kind::CpuRequest:
        scheduled.clear();
        if (view.engine(m).cpuRequestDone(ev.slot, ev.partIdx, ev.time,
                                          scheduled))
            finishPart(ev.partIdx, ev.time, false);
        events.pushAll(scheduled, m, view.engine(m).epoch());
        return;

      case SimEvent::Kind::GpuQuery:
        scheduled.clear();
        view.engine(m).gpuQueryDone(ev.slot, ev.partIdx, ev.time, scheduled);
        finishPart(ev.partIdx, ev.time, true);
        events.pushAll(scheduled, m, view.engine(m).epoch());
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

// Release every checked query whose rule now holds, with its parts.
// A query listed twice is released at its first look; the second finds
// its handle stale and skips it.
void
ClusterLoop::releaseRecords()
{
    for (uint64_t query : queryChecks) {
        const QueryState* q = queries.find(query);
        if (q == nullptr || !QueryBook::over(*q))
            continue;
        if (queryBooks)
            releaseRow(*q);
        queries.release(query);
    }
    queryChecks.clear();
}

// A released query's partMachinesOfQuery row is the machines of its
// parts in creation order, dense phases left out: present and
// hedgeQuery push each of those parts to the machine the row names,
// and nothing adds a part to a released query. Rows go to the flat
// book in trace order.
void
ClusterLoop::releaseRow(const QueryState& q)
{
    std::vector<uint32_t> row;
    for (const PartRec& part : q.parts) {
        if (part.kind != PartKind::Dense)
            row.push_back(part.machine);
    }
    if (q.traceIdx != nextRow) {
        parkedRows.emplace(q.traceIdx, std::move(row));
        return;
    }
    result.partMachinesOfQuery.appendRow(row);
    for (nextRow++; !parkedRows.empty() &&
             parkedRows.begin()->first == nextRow;
         nextRow++) {
        result.partMachinesOfQuery.appendRow(parkedRows.begin()->second);
        parkedRows.erase(parkedRows.begin());
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
    warmup = warmupCount(trace.size());
    result.fleetLatencySeconds.reserve(trace.size() - warmup);
    latencyMachine.reserve(trace.size() - warmup);
    if (queryBooks && mixOn)
        latencyModel.reserve(trace.size() - warmup);

    // Pre-size the heap: per machine at most one completion per busy
    // core plus one offload, plus forwarded parts in flight.
    size_t total_cores = 0;
    for (const SimConfig& machine : cfg.machines)
        total_cores += machine.cores();
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
        admission.emplace(cfg.overload, cfg.machines, share, cfg.network);
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
        releaseRecords();
        const bool takeArrival = nextArrival < trace.size() &&
            (events.empty() ||
             trace[nextArrival].arrivalSeconds <= events.top().time);

        if (takeArrival) {
            const Query& in = trace[nextArrival];
            drs_assert(nextArrival == 0 ||
                           in.arrivalSeconds >=
                               trace[nextArrival - 1].arrivalSeconds,
                       "trace must be sorted by arrival");
            drs_assert(in.model < numMix,
                       "query's model is outside the tier's mix");
            result.overload.offered++;
            if (queryBooks && mixOn)
                result.perModel[in.model].offered++;
            present(queries.push(nextArrival), in.arrivalSeconds);
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
            if (ev.slot == hq.gen && hq.partsLeft > 0)
                hedgeQuery(ev.partIdx, ev.time);
            continue;
        }
        // A completion stamped by a dead engine incarnation is a
        // ghost: the crash already accounted for its part.
        if (faultsOn && ev.epoch != view.engine(ev.machine).epoch() &&
            (ev.kind == SimEvent::Kind::CpuRequest ||
             ev.kind == SimEvent::Kind::GpuQuery))
            continue;

        lastEventTime = std::max(lastEventTime, ev.time);
        onTraffic(ev);
    }

    members.finish(*this);
    finishBooks();
}

// Every query is released as soon as no reader can reach it, so none
// is held at the end of a run: a held query whose rule holds means a
// missed release point, and one whose rule fails was never settled or
// has a part that never ended.
void
ClusterLoop::finishBooks()
{
    releaseRecords();
    if (const QueryState* q = queries.anyHeld()) {
        drs_panic("query ", q->traceIdx,
                  QueryBook::over(*q)
                      ? " was never released though no reader can reach it"
                      : " never settled, or a part of it never ended");
    }
    drs_assert(parkedRows.empty(), "a part-machine row was never handed out");
    result.peakHeldQueries = queries.peakHeld();
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

    // Every engine has run out of work, so its busy-time integrals
    // are final: an idle span adds nothing to them.
    const double full_span = lastEventTime - t0;
    double util_sum = 0.0;
    for (size_t m = 0; m < view.numMachines(); m++) {
        drs_assert(view.engine(m).idle(), "an engine holds work at run end");
        MachineStats& stats = result.perMachine[m];
        stats.requestsDispatched = view.engine(m).requestsDispatched();
        stats.busyCoreSeconds = view.engine(m).busyCoreSeconds();
        stats.gpuBusySeconds = view.engine(m).gpuBusySeconds();
        const double billed = members.billedSeconds(m, full_span);
        if (billed > 0.0) {
            const double cores = static_cast<double>(
                cfg.machines[m].cores());
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
