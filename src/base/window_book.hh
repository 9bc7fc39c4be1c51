/**
 * @file
 * A sliding-window book: records addressed by a monotonic id, with
 * storage for the live window only.
 *
 * Ids are handed out in push order (0, 1, 2, ...), exactly the indices
 * an ever-growing vector would give, so callers keep using plain ids.
 * Storage is a ring of fixed-size chunks covering only the live window
 * `[low, next)`: the owner retires head records once no reader can
 * reach them again, and a chunk wholly below `low` is reused by a
 * later chunk, so memory is O(peak live records), not O(records
 * pushed). Chunks never move, so a reference to a live record stays
 * valid across push(). Reading a retired or unissued id panics.
 */

#ifndef DRS_BASE_WINDOW_BOOK_HH
#define DRS_BASE_WINDOW_BOOK_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace deeprecsys {

/** Monotonic-id storage of the live window [lowId(), nextId()). */
template <typename T>
class WindowBook
{
  public:
    /** Records per chunk (a power of two). */
    static constexpr uint64_t kChunkSize = 1024;

    /** Append @p rec and return its id (the next id in sequence). */
    uint64_t
    push(T rec)
    {
        const uint64_t id = next_;
        // A window emptied mid-chunk may have had that chunk's slot
        // reused, so an empty window reopens its chunk too.
        if (id % kChunkSize == 0 || low_ == next_)
            openChunk(id / kChunkSize);
        next_++;
        at(id) = std::move(rec);
        peak_ = std::max(peak_, next_ - low_);
        return id;
    }

    /** The live record @p id; reading a retired or unissued id panics. */
    T& operator[](uint64_t id) { return at(id); }
    const T& operator[](uint64_t id) const { return at(id); }

    /** The id the next push returns. */
    uint64_t nextId() const { return next_; }

    /** The oldest id still readable. */
    uint64_t lowId() const { return low_; }

    /** Records currently in the live window. */
    uint64_t live() const { return next_ - low_; }

    /** High-water mark of live() over every push. */
    uint64_t peakLive() const { return peak_; }

    /** Chunk slots allocated (storage is chunkSlots() * kChunkSize). */
    size_t chunkSlots() const { return ring_.size(); }

    /**
     * Advance the window past every head record for which
     * @p retirable holds; stops at the first head that fails.
     * Returns true when any record was retired.
     */
    template <typename Retirable>
    bool
    retireWhile(Retirable&& retirable)
    {
        const uint64_t before = low_;
        while (low_ < next_ && retirable(at(low_)))
            low_++;
        return low_ != before;
    }

    /**
     * Retire every id below @p id. Ids below it that were never
     * issued are skipped: the next push returns at least @p id.
     */
    void
    retireTo(uint64_t id)
    {
        low_ = std::max(low_, id);
        next_ = std::max(next_, low_);
    }

  private:
    T&
    at(uint64_t id) const
    {
        drs_assert(id >= low_ && id < next_,
                   "id outside the live window");
        return ring_[(id / kChunkSize) & ringMask_][id % kChunkSize];
    }

    /** Make room for chunk @p chunk (the one holding id next_). */
    void
    openChunk(uint64_t chunk)
    {
        // Live chunks span [low_'s chunk, chunk]; the slot of a chunk
        // a full ring below is free to reuse once that chunk is wholly
        // retired. Otherwise double the ring, moving each live chunk
        // to its new slot (the chunks themselves, and so every
        // reference into them, stay put).
        const uint64_t low_chunk = low_ / kChunkSize;
        const uint64_t needed = chunk - low_chunk + 1;
        if (needed > ring_.size()) {
            size_t size = ring_.empty() ? 1 : ring_.size();
            while (size < needed)
                size *= 2;
            std::vector<std::unique_ptr<T[]>> grown(size);
            for (uint64_t c = low_chunk; c < chunk; c++)
                grown[c & (size - 1)] = std::move(ring_[c & ringMask_]);
            ring_ = std::move(grown);
            ringMask_ = size - 1;
        }
        std::unique_ptr<T[]>& slot = ring_[chunk & ringMask_];
        if (!slot)
            slot = std::make_unique<T[]>(kChunkSize);
    }

    /** Chunk c lives at ring_[c & ringMask_]; size is a power of two. */
    std::vector<std::unique_ptr<T[]>> ring_;
    uint64_t ringMask_ = 0;
    uint64_t low_ = 0;
    uint64_t next_ = 0;
    uint64_t peak_ = 0;
};

} // namespace deeprecsys

#endif // DRS_BASE_WINDOW_BOOK_HH
