#include "admission.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.hh"
#include "cluster/routing_policy.hh"
#include "loadgen/query_stream.hh"

namespace deeprecsys {

namespace {

// The fixed degrade shape (see the file comment in admission.hh).
/** Pressure at which shrinking starts; the floor is reached at 1. */
constexpr double kDegradeStartPressure = 0.35;
/** Floor of the shrink as a fraction of the original size. */
constexpr double kMinSizeFraction = 0.25;
/** Quality weight of a degraded answer:
 *  (served size / original size)^kQualityExponent. */
constexpr double kQualityExponent = 1.0;

// The router's other constants.
/** QueueDepth: drop when the least-loaded accepting machine holds
 *  more than this many queued work items. */
constexpr size_t kQueueDepthCap = 64;
/** Per-class-step severity: class c admits against a budget of
 *  deadline * (1 - kPriorityMargin * c) and sees its degrade pressure
 *  raised by kPriorityMargin * c. */
constexpr double kPriorityMargin = 0.15;
static_assert(kPriorityMargin * (OverloadConfig::maxPriorityClasses - 1) <
                      1.0 &&
                  kPriorityMargin * OverloadConfig::maxPriorityClasses >=
                      1.0,
              "maxPriorityClasses is the widest count the margin allows");
/**
 * Retry-storm guard: when the router's pressure at drop time is at or
 * above this multiple of the budget, the drop is final — re-presenting
 * queries into a saturated tier only amplifies the overload it is
 * shedding. Pressure is the queue-wait estimate over the deadline
 * (deadline admission) or the shallowest accepting queue over the
 * depth cap (queue-depth admission).
 */
constexpr double kRetryStormPressure = 2.0;

} // namespace

void
validateTraceLength(uint64_t queries)
{
    if (queries > kMaxTraceQueries)
        drs_fatal("a trace of ", queries, " queries exceeds the ",
                  kMaxTraceQueries, " one cluster run can index");
}

AdmissionController::AdmissionController(
    const OverloadConfig& config, const std::vector<SimConfig>& machines,
    double embeddingShare, const NetworkConfig& network)
    : cfg(config), machines_(machines), embShare(embeddingShare),
      net(network)
{
    drs_assert(!machines_.empty(), "admission needs at least one machine");
    drs_assert(embShare > 0.0 && embShare <= 1.0,
               "embedding share must be in (0, 1]");
    validatePriorityClassCount(cfg.priorityClasses);
}

double
AdmissionController::backlogSeconds(size_t m, const ClusterView& view) const
{
    drs_assert(m < machines_.size(), "backlog of unknown machine");
    // The view exposes the engine's own running queue-cost sum — each
    // queued request priced through the machine's cost model with its
    // true batch, part kind and shard fraction — which no
    // outside-in estimate can reconstruct from counts alone (a
    // sharded tier's queue mixes covering-set sizes, embedding parts
    // and dense phases). Add the second-order term — dense join phases
    // this machine already owes for in-flight fan-outs it leads but
    // has not queued yet — and drain it across the whole core pool:
    // the wait a new arrival sees is total queued work over pool
    // throughput.
    return (view.queuedCostSeconds(m) + view.pendingJoinCostSeconds(m)) /
        coresOf(m);
}

double
AdmissionController::meanBacklogSeconds(const ClusterView& view) const
{
    double sum = 0.0;
    size_t accepting = 0;
    const size_t n = view.numMachines();
    for (size_t m = 0; m < n; ++m) {
        if (!view.accepting(m))
            continue;
        sum += backlogSeconds(m, view);
        accepting++;
    }
    // The loop asks only while some machine accepts (decide()).
    drs_assert(accepting > 0, "no accepting machine to estimate against");
    return sum / static_cast<double>(accepting);
}

double
AdmissionController::worstBacklogSeconds(const ClusterView& view) const
{
    double worst = 0.0;
    const size_t n = view.numMachines();
    for (size_t m = 0; m < n; ++m) {
        if (view.accepting(m))
            worst = std::max(worst, backlogSeconds(m, view));
    }
    return worst;
}

double
AdmissionController::queueWaitSeconds(const ClusterView& view) const
{
    // Unsharded, load-balanced tier: the mean over accepting machines
    // tracks where the router actually lands queries. Sharded tier: a
    // query fans out to a covering set and completes when its
    // *slowest* shard part returns, and placement skew routinely pins
    // the hot tables to a few machines every covering set must visit
    // — the fleet mean dilutes the binding queue away, so the honest
    // pressure is the worst accepting backlog.
    if (embShare >= 1.0)
        return meanBacklogSeconds(view);
    const double worst = worstBacklogSeconds(view);
    // The query queues twice — the fan-out embedding parts
    // now, and the leader's dense phase when the pooled embeddings
    // join. The second visit is projected at the *current* worst
    // backlog, not zero: where admission binds, admitted arrivals
    // refill exactly what drains (the controller holds the queue at
    // equilibrium), so the backlog the join phase meets is the one
    // visible now. At light load both terms are ~0 and nothing is
    // shed. Assuming an idle leader instead is the historical bug:
    // the tier then settles where ONE wait fits the deadline and the
    // measured two-visit latency lands near twice it.
    return worst + worst;
}

double
AdmissionController::partServiceSeconds(size_t m, uint32_t size,
                                        PartKind kind, uint32_t model) const
{
    drs_assert(m < machines_.size(), "service on unknown machine");
    // The query splits into ceil(size / batch) requests that run on
    // up to `cores` cores at once: critical path is total work over
    // the achievable parallelism. Single-request queries (the common
    // case) are priced exactly. The efficiency curves are saturating
    // (per-sample cost falls with batch), so each request is priced
    // through the binding's own cost model, at full core contention —
    // the steady state an overloaded machine actually runs in.
    const SimConfig& machine = machines_[m];
    const size_t b = machine.bindings[model].policy.perRequestBatch;
    const double requests =
        std::ceil(static_cast<double>(size) / static_cast<double>(b));
    const double parallelism = std::min(coresOf(m), requests);
    const size_t req_batch = std::min<size_t>(size, b);
    const PartSpec part{.embFraction = embShare,
                        .kind = kind,
                        .model = model};
    const double work = requests *
        machine.serviceSeconds(part, std::max<size_t>(1, req_batch),
                               /*on_gpu=*/false, machine.cores());
    return work / parallelism;
}

double
AdmissionController::bestServiceSeconds(const ClusterView& view,
                                        uint32_t size, PartKind kind,
                                        uint32_t model) const
{
    double best = std::numeric_limits<double>::infinity();
    const size_t n = view.numMachines();
    for (size_t m = 0; m < n; ++m) {
        if (view.accepting(m))
            best = std::min(best, partServiceSeconds(m, size, kind, model));
    }
    return best;
}

double
AdmissionController::serviceAndHopSeconds(uint32_t size,
                                          const ClusterView& view,
                                          uint32_t model) const
{
    const double samples = static_cast<double>(size);
    const double fwd =
        net.oneWaySeconds(samples * net.requestBytesPerSample);
    const double ret =
        net.oneWaySeconds(samples * net.responseBytesPerSample);
    if (embShare >= 1.0) {
        // Unsharded: one round trip around one whole-query service.
        return fwd +
            bestServiceSeconds(view, size, PartKind::Whole, model) + ret;
    }
    // Sharded: embedding parts, the pooled-embedding hop to the
    // leader, then the dense phase (its queue wait is in
    // queueWaitSeconds).
    const double embHop =
        net.oneWaySeconds(samples * net.embeddingBytesPerSample);
    return fwd +
        bestServiceSeconds(view, size, PartKind::Embedding, model) +
        embHop + bestServiceSeconds(view, size, PartKind::Dense, model) +
        ret;
}

AdmissionDecision
AdmissionController::decide(const Query& query,
                            const ClusterView& view) const
{
    AdmissionDecision d;
    d.servedSize = query.size;

    // Effective priority class and its severity offset: class 0 sees
    // the configured budget; each step down both tightens the
    // admission budget and raises the degrade pressure, so lower
    // classes are always shed and degraded first (pointwise monotone
    // — same query and view, lower class dropped implies higher class
    // index dropped).
    const uint32_t cls = cfg.priorityClasses > 1
        ? std::min<uint32_t>(query.priorityClass, cfg.priorityClasses - 1)
        : 0;
    const double margin = kPriorityMargin * static_cast<double>(cls);

    // The projected queue wait of the critical path is shared by both
    // mechanisms; compute it once. See queueWaitSeconds for the
    // mean-vs-max choice and the two-stage second-visit term.
    const bool needWait =
        cfg.degrade || cfg.admission == AdmissionKind::Deadline;
    const double wait = needWait ? queueWaitSeconds(view) : 0.0;

    // Degrade first: shrinking may turn a would-be drop into an
    // admissible (smaller) query, which is the whole point — a
    // degraded answer beats no answer.
    if (cfg.degrade) {
        const double pressure = wait / cfg.deadlineSeconds + margin;
        if (pressure > kDegradeStartPressure) {
            const double t =
                std::min(1.0, (pressure - kDegradeStartPressure) /
                                  (1.0 - kDegradeStartPressure));
            const double frac =
                1.0 - (1.0 - kMinSizeFraction) * t;
            const uint32_t floorSize =
                std::min(query.size, OverloadConfig::minSize);
            const auto shrunk = static_cast<uint32_t>(
                frac * static_cast<double>(query.size));
            d.servedSize = std::max(floorSize, shrunk);
            if (d.servedSize < query.size)
                d.quality = std::pow(
                    static_cast<double>(d.servedSize) /
                        static_cast<double>(query.size),
                    kQualityExponent);
        }
    }

    switch (cfg.admission) {
      case AdmissionKind::None:
        break;
      case AdmissionKind::QueueDepth: {
        size_t best = std::numeric_limits<size_t>::max();
        size_t bestMachine = 0;
        const size_t n = view.numMachines();
        for (size_t m = 0; m < n; ++m) {
            if (view.accepting(m) && view.queuedWork(m) < best) {
                best = view.queuedWork(m);
                bestMachine = m;
            }
        }
        d.admit = best <= kQueueDepthCap;
        if (!d.admit) {
            // Depth over cap stands in for pressure (no deadline to
            // scale by); the hint is the shallowest queue's projected
            // drain back down to the cap.
            const double depthPressure = static_cast<double>(best) /
                static_cast<double>(kQueueDepthCap);
            d.retryable = cfg.maxRetries > 0 &&
                depthPressure < kRetryStormPressure;
            d.retryAfterSeconds = backlogSeconds(bestMachine, view) *
                (1.0 - 1.0 / depthPressure);
        }
        break;
      }
      case AdmissionKind::Deadline: {
        // Admit iff the estimated end-to-end response — projected
        // queue wait(s) plus per-shape service and network terms —
        // fits the class budget. Queries estimated dead on arrival
        // are shed at the door.
        // Service terms priced through the query's own model binding;
        // the queue-wait term stays a total — queues are shared, so
        // an arrival drains behind every model's queued work.
        const double est =
            wait + serviceAndHopSeconds(d.servedSize, view, query.model);
        const double budget = cfg.deadlineSeconds * (1.0 - margin);
        d.admit = est <= budget;
        if (!d.admit) {
            // Retry-After hint: the estimate's excess over the budget
            // is exactly the queue drain needed before the verdict
            // can flip for this query.
            d.retryAfterSeconds = est - budget;
            const double pressure = wait / cfg.deadlineSeconds;
            d.retryable = cfg.maxRetries > 0 &&
                pressure < kRetryStormPressure;
        }
        break;
      }
    }

    if (!d.admit) {
        d.servedSize = 0;
        d.quality = 0.0;
    }
    return d;
}

} // namespace deeprecsys
