/**
 * @file
 * The cluster drivers' part book: every machine-part a driver creates,
 * addressed by a monotonic id, with storage for in-flight parts only.
 *
 * Ids are handed out in push order (0, 1, 2, ...), exactly the indices
 * an ever-growing vector would give, so event payloads, a dispatch's
 * contiguous `firstPart + i` walk and hedge partner links need no
 * translation. Storage is a ring of fixed-size chunks covering only
 * the live window `[low, next)`: the driver marks each part terminal
 * (done or cancelled) on every path where it finishes or dies, and
 * `retire()` advances `low` past head parts no reader can reach again.
 * A chunk wholly below `low` is reused by a later chunk, so memory is
 * O(peak live parts), not O(parts created). Chunks never move, so a
 * reference to a live part stays valid across `push()`.
 */

#ifndef DRS_CLUSTER_PART_BOOK_HH
#define DRS_CLUSTER_PART_BOOK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/logging.hh"

namespace deeprecsys {

namespace obs {
enum class PartStage : uint8_t;
} // namespace obs

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

/** The observer-facing name of a part kind. */
obs::PartStage stageOf(PartRec::Kind kind);

/** Monotonic-id part storage holding only the live window. */
class PartBook
{
  public:
    /** Parts per chunk (a power of two). */
    static constexpr uint64_t kChunkParts = 1024;

    /** Append @p rec and return its id: the number of earlier pushes. */
    uint64_t push(PartRec rec);

    /** The live part @p id; reading a retired or unissued id panics. */
    PartRec& operator[](uint64_t id) { return at(id); }

    /** The id the next push returns (parts created so far). */
    uint64_t nextId() const { return next_; }

    /** The oldest id still readable. */
    uint64_t lowId() const { return low_; }

    /** Parts currently in the live window. */
    uint64_t live() const { return next_ - low_; }

    /** High-water mark of live() over every push. */
    uint64_t peakLive() const { return peak_; }

    /** Chunk slots allocated (storage is chunkSlots() * kChunkParts). */
    size_t chunkSlots() const { return ring_.size(); }

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
        while (low_ < next_) {
            const PartRec& head = at(low_);
            if (!head.terminal() || !twinTerminal(head) ||
                !dispatch_over(head))
                break;
            low_++;
        }
    }

  private:
    PartRec&
    at(uint64_t id) const
    {
        drs_assert(id >= low_ && id < next_,
                   "part id outside the live window");
        return ring_[(id / kChunkParts) & ringMask_][id % kChunkParts];
    }

    /** A twin below low_ was retired, which needed head terminal. */
    bool
    twinTerminal(const PartRec& head) const
    {
        return head.partner == PartRec::kNoPartner ||
            head.partner < low_ || at(head.partner).terminal();
    }

    /** Make room for chunk @p chunk (the one holding id next_). */
    void openChunk(uint64_t chunk);

    /** Chunk c lives at ring_[c & ringMask_]; size is a power of two. */
    std::vector<std::unique_ptr<PartRec[]>> ring_;
    uint64_t ringMask_ = 0;
    uint64_t low_ = 0;
    uint64_t next_ = 0;
    uint64_t peak_ = 0;
};

} // namespace deeprecsys

#endif // DRS_CLUSTER_PART_BOOK_HH
