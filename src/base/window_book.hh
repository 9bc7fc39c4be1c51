/**
 * @file
 * A sliding-window book: records addressed by a monotonic id, with
 * storage for the live window only.
 *
 * Ids are handed out in push order (0, 1, 2, ...), exactly the indices
 * an ever-growing vector would give, so callers keep using plain ids.
 * Storage is a deque of fixed-size chunks covering only the live
 * window `[low, next)`: the owner retires head records once no reader
 * can reach them again, a chunk the window wholly leaves goes to a
 * spare list, and the next chunk opened reuses it. So memory is the
 * chunks the window spans at its widest (plus at most one spare), not
 * O(records pushed). Chunks never move, so a reference to a live
 * record stays valid across push(). Reading a retired or unissued id
 * panics.
 */

#ifndef DRS_BASE_WINDOW_BOOK_HH
#define DRS_BASE_WINDOW_BOOK_HH

#include <algorithm>
#include <cstdint>
#include <deque>
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
    /** Records per chunk. */
    static constexpr uint64_t kChunkSize = 1024;

    /** Append @p rec and return its id (the next id in sequence). */
    uint64_t
    push(T rec)
    {
        const uint64_t id = next_;
        const uint64_t chunk = id / kChunkSize;
        // An empty window reopens wherever next_ is (retireTo may have
        // skipped ids never issued); otherwise next_ is in the last
        // live chunk or the one after it.
        if (live_.empty())
            firstChunk_ = chunk;
        if (chunk == firstChunk_ + live_.size())
            openChunk();
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

    /**
     * Chunks allocated, live and spare (storage is chunksAllocated()
     * * kChunkSize records). Chunks are kept for reuse, never freed,
     * so this is also the book's chunk high-water mark.
     */
    size_t chunksAllocated() const { return live_.size() + spare_.size(); }

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
        releaseChunks();
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
        releaseChunks();
    }

  private:
    T&
    at(uint64_t id) const
    {
        drs_assert(id >= low_ && id < next_,
                   "id outside the live window");
        return live_[id / kChunkSize - firstChunk_][id % kChunkSize];
    }

    /** Append the chunk holding id next_, reusing a spare if any. */
    void
    openChunk()
    {
        if (spare_.empty()) {
            live_.push_back(std::make_unique<T[]>(kChunkSize));
        } else {
            live_.push_back(std::move(spare_.back()));
            spare_.pop_back();
        }
    }

    /** Move every chunk wholly below low_ to the spare list. */
    void
    releaseChunks()
    {
        while (!live_.empty() && (firstChunk_ + 1) * kChunkSize <= low_) {
            spare_.push_back(std::move(live_.front()));
            live_.pop_front();
            firstChunk_++;
        }
    }

    /** Chunk firstChunk_ + i lives at live_[i]. */
    std::deque<std::unique_ptr<T[]>> live_;
    std::vector<std::unique_ptr<T[]>> spare_;
    uint64_t firstChunk_ = 0;
    uint64_t low_ = 0;
    uint64_t next_ = 0;
    uint64_t peak_ = 0;
};

} // namespace deeprecsys

#endif // DRS_BASE_WINDOW_BOOK_HH
