/**
 * @file
 * The cluster drivers' query book: the per-query state of every query
 * a driver has seen, addressed by its trace index, with storage for
 * in-flight queries only (a WindowBook, base/window_book.hh).
 *
 * A driver pushes a query's record when the query first arrives, so
 * ids equal trace indices. It marks the record settled when the query
 * reaches its final outcome (completed, finally dropped, or lost), and
 * `retire()` advances the window past head queries no reader can
 * reach again, so memory is O(peak in-flight queries), not O(trace).
 */

#ifndef DRS_CLUSTER_QUERY_BOOK_HH
#define DRS_CLUSTER_QUERY_BOOK_HH

#include <cstdint>
#include <vector>

#include "base/window_book.hh"
#include "cluster/part_book.hh"

namespace deeprecsys {

/** Book-keeping for one query, as a cluster driver sees it. */
struct QueryState
{
    double arrival = 0;
    double joinTime = 0;      ///< latest part completion + return hop
    double leaderReady = 0;   ///< TwoStage: last pooled part at leader
    double quality = 1.0;     ///< answer quality (< 1 when degraded)
    uint64_t firstPart = 0;   ///< part id of this dispatch's first part
    /** One past the last part id created for the query (0 if none). */
    uint64_t partsEnd = 0;
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

    bool measured = true;
    bool dead = false;        ///< killed by a failure (awaiting failover)
    /** The dispatch holds a committed TwoStage join-phase cost that
     *  must be released exactly once (JoinPhase admission or kill). */
    bool joinCommitted = false;
    /** The leader owes a pendingJoins release (TwoStage fan-out). */
    bool joinLeadership = false;
    /** Completed, finally dropped or lost: no new work will start. */
    bool settled = false;

    /** Every machine a part was sent to so far, in creation order
     *  (its ClusterResult::partMachinesOfQuery row); kept only by runs
     *  that keep per-query books. */
    std::vector<uint32_t> partMachines;
};

/** The query book: a WindowBook of queries plus its retire rule. */
class QueryBook : public WindowBook<QueryState>
{
  public:
    /**
     * Advance the live window past every head query that no reader
     * can reach again: it is settled (no retry or failover will
     * re-present it), no HedgeCheck event for it is pending, and every
     * part created for it has left @p parts (a live part reads its
     * query). @p on_retire sees each query just before it leaves.
     * Stops at the first head that fails; returns true when any query
     * was retired.
     */
    template <typename OnRetire>
    bool
    retire(const PartBook& parts, OnRetire&& on_retire)
    {
        return retireWhile([&](const QueryState& q) {
            const bool over = q.settled && q.hedgeChecks == 0 &&
                q.partsEnd <= parts.lowId();
            if (over)
                on_retire(q);
            return over;
        });
    }
};

} // namespace deeprecsys

#endif // DRS_CLUSTER_QUERY_BOOK_HH
