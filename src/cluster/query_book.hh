/**
 * @file
 * The cluster drivers' query book: the per-query state of every query
 * a driver still holds, with the parts each of its dispatches created,
 * in a pool of recycled slots.
 *
 * A driver pushes a query's record when the query first arrives and
 * names it from then on by the handle push() returns; the record keeps
 * the query's trace index for outputs. The driver marks the record
 * settled when the query reaches its final outcome (completed, finally
 * dropped, or lost) and releases it, parts and all, as soon as over()
 * holds, so memory is O(held queries) records, and a held query costs
 * nothing for the queries that arrive after it.
 */

#ifndef DRS_CLUSTER_QUERY_BOOK_HH
#define DRS_CLUSTER_QUERY_BOOK_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/logging.hh"
#include "obs/observer.hh"
#include "sim/machine_engine.hh"

namespace deeprecsys {

/** One machine's share of one in-flight query, as a driver sees it. */
struct PartRec
{
    uint32_t machine = 0;

    /** Whole for a single-part dispatch; a fan-out's embedding parts,
     *  then its leader's dense phase. */
    PartKind kind = PartKind::Whole;

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
     *  part stale (its dispatch was killed). */
    uint32_t gen = 0;
};

/**
 * The 64-bit id a part goes by in events and engines, high bits first:
 *
 * - its query's pool slot, kSlotBits = 24 bits: a book holds at most
 *   16,777,216 queries at once;
 * - that slot's record generation, kRecordGenBits = 16 bits, which
 *   each release bumps and which wraps (QueryBook says what that
 *   weakens);
 * - the part's position among its query's parts, kPosBits = 24 bits:
 *   a query has at most 16,777,216 parts.
 *
 * A query's handle is the id with position 0. Retry and HedgeCheck
 * events carry it, and queryOfPart() turns a part id back into it.
 */
constexpr unsigned kPosBits = 24;
constexpr unsigned kRecordGenBits = 16;
constexpr unsigned kSlotBits = 64 - kRecordGenBits - kPosBits;

/** Most queries a QueryBook holds at once. */
constexpr uint64_t kMaxHeldQueries = uint64_t{1} << kSlotBits;

/** Most parts one query may have. */
constexpr uint64_t kMaxQueryParts = uint64_t{1} << kPosBits;

/** The handle of the query held in pool slot @p slot at record
 *  generation @p record_gen; a slot over kSlotBits is a drs_fatal. */
inline uint64_t
queryHandle(uint64_t slot, uint16_t record_gen)
{
    if (slot >= kMaxHeldQueries)
        drs_fatal("cluster: more than ", kMaxHeldQueries,
                  " queries held at once");
    return (slot << kRecordGenBits | record_gen) << kPosBits;
}

/** The id of part @p pos of query @p query; a position over kPosBits
 *  is a drs_fatal. */
inline uint64_t
partId(uint64_t query, uint64_t pos)
{
    if (pos >= kMaxQueryParts)
        drs_fatal("cluster: a query has more than ", kMaxQueryParts,
                  " parts");
    return query | pos;
}

/** The handle of the query part @p part_id belongs to. */
constexpr uint64_t
queryOfPart(uint64_t part_id)
{
    return part_id & ~(kMaxQueryParts - 1);
}

/** Part @p part_id's position among its query's parts. */
constexpr uint32_t
posOfPart(uint64_t part_id)
{
    return static_cast<uint32_t>(part_id & (kMaxQueryParts - 1));
}

/** The pool slot of query handle @p query. */
constexpr uint64_t
slotOfQuery(uint64_t query)
{
    return query >> (kRecordGenBits + kPosBits);
}

/** The record generation of query handle @p query. */
constexpr uint16_t
recordGenOfQuery(uint64_t query)
{
    return static_cast<uint16_t>(query >> kPosBits);
}

/** Book-keeping for one query, as a cluster driver sees it. */
struct QueryState
{
    /** Index of the query in its trace: outputs, observer hooks and
     *  the measured flag key on it, never on the handle. */
    uint64_t traceIdx = 0;

    double arrival = 0;
    double joinTime = 0;      ///< latest part completion + return hop
    double leaderReady = 0;   ///< fan-out: last pooled part at leader
    double quality = 1.0;     ///< answer quality (< 1 when degraded)
    /**
     * The dispatch's committed join-phase price (0 when none, or
     * when no admission estimator reads it): added to the leader's
     * pending join cost in the tier's ClusterView at fan-out and
     * released exactly once (JoinPhase admission or kill).
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
    uint32_t gen = 0;         ///< dispatch generation (bumped at each
                              ///< present and each failure)
    uint32_t failovers = 0;   ///< failure-driven re-presentations so far
    uint32_t leaderEpoch = 0; ///< leader engine epoch at dispatch
    uint32_t numParts = 0;    ///< fan-out width of this dispatch
    uint32_t hedgeChecks = 0; ///< HedgeCheck events still pending
    uint32_t liveParts = 0;   ///< parts not yet done or cancelled

    /** Every part of every dispatch of the query, in creation order;
     *  a part's position here is the low bits of its id. */
    std::vector<PartRec> parts;

    /** The observer's span stamps (written only when one is attached). */
    obs::QueryStamps stamps;

    bool measured = true;
    /** The leader owes a pendingJoins release (fan-out). */
    bool joinLeadership = false;
    /** Completed, finally dropped or lost: no new work will start. */
    bool settled = false;
};

/**
 * The query book: a pool of query records plus the rule that releases
 * them.
 *
 * Records live in chunks of kChunkSize slots that never move, so a
 * reference to a held record stays valid across push(). release()
 * resets a slot to QueryState{}, dropping the record's parts, bumps
 * the slot's record generation and puts the slot on a free list; the
 * next push() takes the slot freed last. A handle names its slot's
 * generation, so reading or releasing a handle after its query was
 * released panics, whether or not a later push reused the slot. The
 * generation is 16 bits and wraps: a handle kept across exactly a
 * multiple of 65,536 releases of its slot would read the slot's new
 * record unchecked.
 */
class QueryBook
{
  public:
    /** Records per pool chunk. */
    static constexpr uint64_t kChunkSize = 1024;

    /** Hold a fresh record of trace query @p trace_idx in a free slot
     *  and return its handle. */
    uint64_t
    push(uint64_t trace_idx)
    {
        uint64_t slot;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
        } else {
            slot = recordGens_.size();
            if (slot == chunks_.size() * kChunkSize)
                chunks_.push_back(std::make_unique<QueryState[]>(kChunkSize));
            recordGens_.push_back(0);
        }
        const uint64_t query = queryHandle(slot, recordGens_[slot]);
        record(slot).traceIdx = trace_idx;
        peakHeld_ = std::max(peakHeld_, ++held_);
        return query;
    }

    /** The held record @p query; a released handle panics. */
    QueryState& operator[](uint64_t query) { return record(slotOf(query)); }
    const QueryState&
    operator[](uint64_t query) const
    {
        return record(slotOf(query));
    }

    /** The held record @p query, or null once it was released. */
    const QueryState*
    find(uint64_t query) const
    {
        const uint64_t slot = slotOfQuery(query);
        return recordGens_[slot] == recordGenOfQuery(query) ? &record(slot)
                                                            : nullptr;
    }

    /** Free record @p query: no reader will reach it again. Releasing
     *  a handle twice panics. */
    void
    release(uint64_t query)
    {
        const uint64_t slot = slotOf(query);
        record(slot) = QueryState{};
        recordGens_[slot]++;
        free_.push_back(static_cast<uint32_t>(slot));
        held_--;
    }

    /** Records currently held. */
    uint64_t held() const { return held_; }

    /** High-water mark of held() over every push. */
    uint64_t peakHeld() const { return peakHeld_; }

    /** Slots ever handed out: push() takes a fresh one only when none
     *  is free, so this equals peakHeld(). */
    uint64_t slotsIssued() const { return recordGens_.size(); }

    /** Some held record, or null when none is (a scan: end of run). */
    const QueryState*
    anyHeld() const
    {
        std::vector<bool> freed(recordGens_.size(), false);
        for (uint32_t slot : free_)
            freed[slot] = true;
        for (uint64_t slot = 0; slot < freed.size(); slot++) {
            if (!freed[slot])
                return &record(slot);
        }
        return nullptr;
    }

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

  private:
    /** The slot of held record @p query; panics on a released one. */
    uint64_t
    slotOf(uint64_t query) const
    {
        const uint64_t slot = slotOfQuery(query);
        drs_assert(slot < recordGens_.size(), "query handle never issued");
        drs_assert(recordGens_[slot] == recordGenOfQuery(query),
                   "stale query handle: its record was released");
        return slot;
    }

    QueryState&
    record(uint64_t slot) const
    {
        return chunks_[slot / kChunkSize][slot % kChunkSize];
    }

    /** Slot s lives at chunks_[s / kChunkSize][s % kChunkSize]. */
    std::vector<std::unique_ptr<QueryState[]>> chunks_;
    std::vector<uint16_t> recordGens_;  ///< per slot ever issued
    std::vector<uint32_t> free_;        ///< freed slots, reused last first
    uint64_t held_ = 0;
    uint64_t peakHeld_ = 0;
};

} // namespace deeprecsys

#endif // DRS_CLUSTER_QUERY_BOOK_HH
