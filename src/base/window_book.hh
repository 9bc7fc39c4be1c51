/**
 * @file
 * A sliding-window book: records addressed by a monotonic id, with
 * storage for the records still held only.
 *
 * Ids are handed out in push order (0, 1, 2, ...), exactly the indices
 * an ever-growing vector would give, so callers keep using plain ids.
 * The book has two layers:
 *
 * - The window: the ids `[low, next)` in order, one 4-byte slot handle
 *   each, stored in fixed-size chunks. The owner retires head ids once
 *   no reader can reach them again; a chunk the window wholly leaves
 *   goes to a spare list, and the next chunk opened reuses it.
 * - The pool: the records themselves, in fixed-size chunks of slots
 *   recycled through a free list. The owner may release() a record
 *   out of order as soon as no reader can reach it; its slot is reset
 *   and reused by the next push, and the window later passes its id
 *   without reading it.
 *
 * So a record costs its slot only while it is held, and one long-lived
 * record pins 4 bytes per later id, not a record. Chunks of either
 * layer never move, so a reference to a held record stays valid across
 * push(). Reading an id that is retired, released or never issued
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

/** Monotonic-id storage of the held records of [lowId(), nextId()). */
template <typename T>
class WindowBook
{
  public:
    /** Ids per window chunk, and records per pool chunk. */
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
        const uint32_t slot = takeSlot();
        slotAt(slot) = std::move(rec);
        handle(id) = slot;
        peak_ = std::max(peak_, next_ - low_);
        peakHeld_ = std::max(peakHeld_, ++held_);
        return id;
    }

    /** The held record @p id; any other id panics. */
    T& operator[](uint64_t id) { return slotAt(slotOf(id)); }
    const T& operator[](uint64_t id) const { return slotAt(slotOf(id)); }

    /** The held record @p id, or null when @p id is retired,
     *  released or never issued. */
    const T*
    find(uint64_t id) const
    {
        if (id < low_ || id >= next_ || handle(id) == kReleased)
            return nullptr;
        return &slotAt(handle(id));
    }

    /**
     * Free record @p id out of order: no reader will reach it again.
     * Its id stays in the window until the window passes it; releasing
     * an id not held panics.
     */
    void
    release(uint64_t id)
    {
        const uint32_t slot = slotOf(id);
        handle(id) = kReleased;
        freeSlot(slot);
    }

    /** The id the next push returns. */
    uint64_t nextId() const { return next_; }

    /** The oldest id still in the window. */
    uint64_t lowId() const { return low_; }

    /** Ids currently in the window, held or released. */
    uint64_t live() const { return next_ - low_; }

    /** High-water mark of live() over every push. */
    uint64_t peakLive() const { return peak_; }

    /** Records currently held (in the window and not released). */
    uint64_t held() const { return held_; }

    /** High-water mark of held() over every push. */
    uint64_t peakHeld() const { return peakHeld_; }

    /**
     * Window chunks allocated, live and spare (the window is
     * chunksAllocated() * kChunkSize handles). Chunks are kept for
     * reuse, never freed, so this is also the window's chunk
     * high-water mark.
     */
    size_t chunksAllocated() const { return live_.size() + spare_.size(); }

    /** Pool chunks allocated (the pool is slotChunks() * kChunkSize
     *  records); never falls, like chunksAllocated(). */
    size_t slotChunks() const { return slots_.size(); }

    /**
     * Advance the window past every head id that is released, and past
     * every held head record for which @p retirable holds, releasing
     * it. Stops at the first head that fails. Returns true when the
     * window moved.
     */
    template <typename Retirable>
    bool
    retireWhile(Retirable&& retirable)
    {
        const uint64_t before = low_;
        for (; low_ < next_; low_++) {
            const uint32_t slot = handle(low_);
            if (slot == kReleased)
                continue;
            if (!retirable(slotAt(slot)))
                break;
            freeSlot(slot);
        }
        releaseChunks();
        return low_ != before;
    }

    /**
     * Retire every id below @p id, showing each held record to
     * @p visit (in id order) before releasing it. Ids below @p id that
     * were never issued are skipped: the next push returns at least
     * @p id.
     */
    template <typename Visit>
    void
    retireTo(uint64_t id, Visit&& visit)
    {
        for (const uint64_t end = std::min(id, next_); low_ < end; low_++) {
            const uint32_t slot = handle(low_);
            if (slot != kReleased) {
                visit(std::as_const(slotAt(slot)));
                freeSlot(slot);
            }
        }
        low_ = std::max(low_, id);
        next_ = std::max(next_, low_);
        releaseChunks();
    }

    /** retireTo() with nothing to visit. */
    void retireTo(uint64_t id) { retireTo(id, [](const T&) {}); }

  private:
    /** Handle of an id whose record was released. */
    static constexpr uint32_t kReleased = UINT32_MAX;

    /** The window handle of @p id (in the window, held or not). */
    uint32_t&
    handle(uint64_t id) const
    {
        return live_[id / kChunkSize - firstChunk_][id % kChunkSize];
    }

    /** The pool slot of held record @p id; panics on any other id. */
    uint32_t
    slotOf(uint64_t id) const
    {
        drs_assert(id >= low_ && id < next_, "id outside the live window");
        const uint32_t slot = handle(id);
        drs_assert(slot != kReleased, "record already released");
        return slot;
    }

    T&
    slotAt(uint32_t slot) const
    {
        return slots_[slot / kChunkSize][slot % kChunkSize];
    }

    /** A free pool slot: the last one freed, or a fresh one. */
    uint32_t
    takeSlot()
    {
        if (!free_.empty()) {
            const uint32_t slot = free_.back();
            free_.pop_back();
            return slot;
        }
        if (slotsIssued_ == slots_.size() * kChunkSize)
            slots_.push_back(std::make_unique<T[]>(kChunkSize));
        return slotsIssued_++;
    }

    /** Reset @p slot's record (dropping what it owns) and recycle it. */
    void
    freeSlot(uint32_t slot)
    {
        slotAt(slot) = T{};
        free_.push_back(slot);
        held_--;
    }

    /** Append the window chunk holding id next_, reusing a spare. */
    void
    openChunk()
    {
        if (spare_.empty()) {
            live_.push_back(std::make_unique<uint32_t[]>(kChunkSize));
        } else {
            live_.push_back(std::move(spare_.back()));
            spare_.pop_back();
        }
    }

    /** Move every window chunk wholly below low_ to the spare list. */
    void
    releaseChunks()
    {
        while (!live_.empty() && (firstChunk_ + 1) * kChunkSize <= low_) {
            spare_.push_back(std::move(live_.front()));
            live_.pop_front();
            firstChunk_++;
        }
    }

    /** Window chunk firstChunk_ + i lives at live_[i]. */
    std::deque<std::unique_ptr<uint32_t[]>> live_;
    std::vector<std::unique_ptr<uint32_t[]>> spare_;
    uint64_t firstChunk_ = 0;
    uint64_t low_ = 0;
    uint64_t next_ = 0;
    uint64_t peak_ = 0;

    /** Pool slot s lives at slots_[s / kChunkSize][s % kChunkSize]. */
    std::vector<std::unique_ptr<T[]>> slots_;
    std::vector<uint32_t> free_;   ///< freed slots, reused last-in first
    uint32_t slotsIssued_ = 0;     ///< slots ever handed out
    uint64_t held_ = 0;
    uint64_t peakHeld_ = 0;
};

} // namespace deeprecsys

#endif // DRS_BASE_WINDOW_BOOK_HH
