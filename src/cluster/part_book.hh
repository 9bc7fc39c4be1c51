/**
 * @file
 * The cluster drivers' part book: every machine-part a driver creates,
 * addressed by a monotonic id, with storage for in-flight parts only
 * (a WindowBook, base/window_book.hh). The driver marks each part
 * terminal (done or cancelled) on every path where it finishes or
 * dies, and `retire()` advances the window past head parts no reader
 * can reach again, so memory is O(peak live parts), not O(parts
 * created).
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
 * The part book: a WindowBook of parts plus the rule that retires
 * them. Ids are the indices an ever-growing vector would give, so
 * event payloads, a dispatch's contiguous `firstPart + i` walk and
 * hedge partner links need no translation.
 */
class PartBook : public WindowBook<PartRec>
{
  public:
    /**
     * Advance the live window past every head part that no reader can
     * reach again: it is terminal, its hedge twin (if any) is terminal
     * (a finishing or dying twin reads it), and @p dispatch_over says
     * its query's dispatch has ended (a live dispatch's hedge check
     * walks all of its parts). Stops at the first head that fails.
     */
    template <typename DispatchOver>
    void
    retire(DispatchOver&& dispatch_over)
    {
        retireWhile([&](const PartRec& head) {
            return head.terminal() && twinTerminal(head) &&
                dispatch_over(head);
        });
    }

  private:
    /** A twin below lowId() was retired, which needed head terminal. */
    bool
    twinTerminal(const PartRec& head) const
    {
        return head.partner == PartRec::kNoPartner ||
            head.partner < lowId() || (*this)[head.partner].terminal();
    }
};

} // namespace deeprecsys

#endif // DRS_CLUSTER_PART_BOOK_HH
