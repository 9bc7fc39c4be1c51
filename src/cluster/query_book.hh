/**
 * @file
 * The cluster drivers' query book: the per-query state of every query
 * a driver has seen, with the parts each of its dispatches created,
 * addressed by its trace index, with storage for the queries a reader
 * can still reach (a WindowBook, base/window_book.hh).
 *
 * A driver pushes a query's record when the query first arrives, so
 * ids equal trace indices. It marks the record settled when the query
 * reaches its final outcome (completed, finally dropped, or lost),
 * releases it, parts and all, as soon as over() holds, and `retire()`
 * advances the window past head queries, so memory is O(held queries)
 * records plus a few bytes per id in the window, not O(trace).
 */

#ifndef DRS_CLUSTER_QUERY_BOOK_HH
#define DRS_CLUSTER_QUERY_BOOK_HH

#include <cstdint>
#include <vector>

#include "base/window_book.hh"
#include "obs/observer.hh"

namespace deeprecsys {

/** One machine's share of one in-flight query, as a driver sees it. */
struct PartRec
{
    uint32_t machine = 0;

    enum class Kind
    {
        Whole,     ///< single-part dispatch (full replica path)
        FanEmb,    ///< fan-out embedding phase (local lookups only)
        FanDense,  ///< TwoStage second phase: leader dense stacks
    } kind = Kind::Whole;

    double embFraction = 1.0;  ///< local share of the embedding work
    double start = 0;          ///< machine admission time (observer only)

    /** partner value of an unhedged part. */
    static constexpr uint32_t kNoPartner = UINT32_MAX;

    /** Position in the query of the hedge twin racing for the same
     *  logical share, if any. */
    uint32_t partner = kNoPartner;

    bool leader = true;      ///< this part's machine leads the query
    bool done = false;       ///< finished all local work
    bool cancelled = false;  ///< destroyed by a crash or staleness
    bool hedged = false;     ///< this part IS the hedge duplicate

    /** Tables this part covers (shard-aware fan-out with hedging
     *  only); hedging uses it to find another replica of the share. */
    std::vector<uint32_t> tables = {};

    /** Dispatch generation of the owning query this part belongs to;
     *  a mismatch against the query's current generation marks the
     *  part stale (its dispatch was killed and the query re-presented). */
    uint32_t gen = 0;
};

/**
 * The 64-bit id a part goes by in events and engines: its query's
 * trace index (below kMaxTraceQueries, so 32 bits) in the high half
 * and its position among the query's parts in the low half.
 */
constexpr uint64_t
partId(uint64_t query_idx, uint32_t pos)
{
    return query_idx << 32 | pos;
}

/** The trace index of the query part @p part_id belongs to. */
constexpr uint64_t
queryOfPart(uint64_t part_id)
{
    return part_id >> 32;
}

/** Part @p part_id's position among its query's parts. */
constexpr uint32_t
posOfPart(uint64_t part_id)
{
    return static_cast<uint32_t>(part_id);
}

/** Book-keeping for one query, as a cluster driver sees it. */
struct QueryState
{
    double arrival = 0;
    double joinTime = 0;      ///< latest part completion + return hop
    double leaderReady = 0;   ///< TwoStage: last pooled part at leader
    double quality = 1.0;     ///< answer quality (< 1 when degraded)
    /**
     * The dispatch's committed TwoStage join-phase price (0 when
     * none): added to the leader's pending join cost in the tier's
     * ClusterView at fan-out and released exactly once (JoinPhase
     * admission or kill).
     */
    double joinCost = 0;
    uint32_t firstPart = 0;   ///< position of this dispatch's first part
    uint32_t size = 0;
    uint32_t partsLeft = 0;
    uint32_t machine = 0;     ///< leader machine
    uint32_t cls = 0;         ///< effective priority class
    uint32_t attempt = 0;     ///< client retries scheduled so far
    uint32_t model = 0;       ///< mix model (0 on single-model tiers)

    // --- fault/hedge bookkeeping (untouched on the fault-free path) ---
    uint32_t gen = 0;         ///< dispatch generation (bumped each present)
    uint32_t failovers = 0;   ///< failure-driven re-presentations so far
    uint32_t leaderEpoch = 0; ///< leader engine epoch at dispatch
    uint32_t numParts = 0;    ///< fan-out width of this dispatch
    uint32_t hedgeChecks = 0; ///< HedgeCheck events still pending
    uint32_t liveParts = 0;   ///< parts not yet done or cancelled

    /** Every part of every dispatch of the query, in creation order;
     *  a part's position here is the low half of its id. */
    std::vector<PartRec> parts;

    /** The observer's span stamps (written only when one is attached). */
    obs::QueryStamps stamps;

    bool measured = true;
    bool dead = false;        ///< killed by a failure (awaiting failover)
    /** The leader owes a pendingJoins release (TwoStage fan-out). */
    bool joinLeadership = false;
    /** Completed, finally dropped or lost: no new work will start. */
    bool settled = false;
};

/**
 * The query book: a WindowBook of queries plus the rules that release
 * and retire them.
 */
class QueryBook : public WindowBook<QueryState>
{
  public:
    /**
     * No reader can reach query @p q or its parts again: it is settled
     * (no retry or failover will re-present it), no HedgeCheck event
     * for it is pending, and every part of it is done or cancelled (no
     * engine work or event refers to one again). Once true it stays
     * true.
     */
    static bool
    over(const QueryState& q)
    {
        return q.settled && q.hedgeChecks == 0 && q.liveParts == 0;
    }

    /**
     * Advance the live window past every head query the owner
     * released. The owner releases each query as soon as over() holds,
     * so a held head for which over() holds was never released, and
     * that panics. Stops at the first held head; returns true when any
     * query was retired.
     */
    bool
    retire()
    {
        return retireWhile([](const QueryState& q) {
            drs_assert(!over(q),
                       "a query no reader can reach was never released");
            return false;
        });
    }
};

} // namespace deeprecsys

#endif // DRS_CLUSTER_QUERY_BOOK_HH
