/**
 * @file
 * The cluster drivers' part book: every machine-part a driver creates,
 * addressed by a monotonic id, with storage for the parts a reader can
 * still reach (a WindowBook, base/window_book.hh). The driver marks
 * each part terminal (done or cancelled) on every path where it
 * finishes or dies, releases each part as soon as unreachable() holds
 * for it, and `retire()` advances the window past head parts, so
 * memory is O(held parts) records plus 4 bytes per id in the window,
 * not O(parts created).
 */

#ifndef DRS_CLUSTER_PART_BOOK_HH
#define DRS_CLUSTER_PART_BOOK_HH

#include <cstdint>
#include <vector>

#include "base/window_book.hh"

namespace deeprecsys {

/** One machine's share of one in-flight query, as a driver sees it. */
struct PartRec
{
    uint64_t queryIdx = 0;
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
    static constexpr uint64_t kNoPartner = UINT64_MAX;

    /** The hedge twin racing for the same logical share, if any. */
    uint64_t partner = kNoPartner;

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

    /** Finished or dead: no engine work or event refers to it again. */
    bool terminal() const { return done || cancelled; }
};

/**
 * The part book: a WindowBook of parts plus the rule that releases and
 * retires them. Ids are the indices an ever-growing vector would give,
 * so event payloads, a dispatch's contiguous `firstPart + i` walk and
 * hedge partner links need no translation.
 */
class PartBook : public WindowBook<PartRec>
{
  public:
    /**
     * No reader can reach part @p p again: it is terminal, its hedge
     * twin (if any) is released or terminal (a finishing or dying twin
     * reads it), and @p dispatch_over says its query's dispatch has
     * ended (a live dispatch's hedge check walks all of its parts).
     * Once true it stays true.
     */
    template <typename DispatchOver>
    bool
    unreachable(const PartRec& p, DispatchOver&& dispatch_over) const
    {
        return p.terminal() && twinTerminal(p) && dispatch_over(p);
    }

    /**
     * Advance the live window past every head part that is released
     * or unreachable(), releasing the latter after @p on_release sees
     * it. Stops at the first head that fails.
     */
    template <typename DispatchOver, typename OnRelease>
    void
    retire(DispatchOver&& dispatch_over, OnRelease&& on_release)
    {
        retireWhile([&](const PartRec& head) {
            if (!unreachable(head, dispatch_over))
                return false;
            on_release(head);
            return true;
        });
    }

    /** retire() with nothing to see. */
    template <typename DispatchOver>
    void
    retire(DispatchOver&& dispatch_over)
    {
        retire(dispatch_over, [](const PartRec&) {});
    }

  private:
    /** A twin no longer held was released or retired, which needed
     *  this part terminal first. */
    bool
    twinTerminal(const PartRec& p) const
    {
        if (p.partner == PartRec::kNoPartner)
            return true;
        const PartRec* twin = find(p.partner);
        return twin == nullptr || twin->terminal();
    }
};

} // namespace deeprecsys

#endif // DRS_CLUSTER_PART_BOOK_HH
