/**
 * @file
 * A flat book of rows: many short, variable-length rows stored as one
 * offsets array plus fixed-size chunks of elements, in row order.
 *
 * A vector of vectors pays a heap block and three words per row; this
 * pays one 32-bit offset per row and nothing else. A row never
 * straddles two chunks, so each row is contiguous and row() is a
 * zero-copy view. Appending opens a new chunk when the next row does
 * not fit the rest of the current one; it never copies or moves an
 * element already stored, so views stay valid for the book's lifetime
 * and a growing book never holds two copies of itself. With the rows
 * reserved up front, heap use is the content plus under one chunk,
 * plus the tail of each chunk a row skipped (shorter than that row).
 * Rows are appended whole and never change afterwards.
 *
 * The book may store its elements narrower than it hands them out:
 * FlatBook<uint16_t, uint32_t> keeps 2-byte elements, takes and yields
 * rows of uint32_t, and asserts that every appended value fits.
 */

#ifndef DRS_BASE_FLAT_BOOK_HH
#define DRS_BASE_FLAT_BOOK_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace deeprecsys {

/**
 * Append-only rows addressed by row index: stored as T, appended and
 * yielded by value as Value (T unless the storage is narrower).
 */
template <typename T, typename Value = T>
class FlatBook
{
  public:
    /** Bytes per chunk of elements. */
    static constexpr size_t kChunkBytes = size_t{64} << 10;
    /** Elements per chunk: the longest row the book can hold. */
    static constexpr size_t kChunkElems = kChunkBytes / sizeof(T);
    static_assert(kChunkElems > 0, "element larger than a chunk");

    /** Iterator over the rows, each yielded by value. */
    class const_iterator
    {
      public:
        const_iterator(const FlatBook* book, size_t row)
            : book_(book), row_(row) {}

        std::vector<Value> operator*() const { return (*book_)[row_]; }

        const_iterator&
        operator++()
        {
            row_++;
            return *this;
        }

        bool operator==(const const_iterator&) const = default;

      private:
        const FlatBook* book_;
        size_t row_;
    };

    /** Append @p row as row size(); it must fit in one chunk, and
     *  each of its values in a T. */
    void
    appendRow(std::span<const Value> row)
    {
        drs_assert(row.size() <= kChunkElems,
                   "row of ", row.size(), " longer than a flat book chunk");
        uint64_t begin = offsets_.back();
        if (!row.empty()) {
            if (begin % kChunkElems + row.size() > kChunkElems)
                begin = chunkEnd(begin);
            if (begin / kChunkElems == chunks_.size())
                chunks_.emplace_back(kChunkElems);
            T* out = chunks_[begin / kChunkElems].data() + begin % kChunkElems;
            for (const Value& v : row) {
                if constexpr (!std::is_same_v<T, Value>)
                    drs_assert(std::in_range<T>(v), "value ", v,
                               " does not fit a flat book element");
                *out++ = static_cast<T>(v);
            }
        }
        const uint64_t end = begin + row.size();
        drs_assert(end <= UINT32_MAX, "flat book outgrew its 32-bit offsets");
        offsets_.push_back(static_cast<uint32_t>(end));
    }

    /** Pre-size the offsets for @p rows rows in all. */
    void reserveRows(size_t rows) { offsets_.reserve(rows + 1); }

    /** Rows appended so far. */
    size_t size() const { return offsets_.size() - 1; }

    /** Row @p i, zero-copy; valid for the book's lifetime. */
    std::span<const T>
    row(size_t i) const
    {
        drs_assert(i < size(), "row outside the book");
        uint64_t begin = offsets_[i];
        const uint64_t end = offsets_[i + 1];
        if (begin == end)
            return {};
        // offsets_[i] is where row i - 1 ended; row i starts there
        // unless it did not fit that chunk, and then it ends past it.
        if (end > chunkEnd(begin))
            begin = chunkEnd(begin);
        return {chunks_[begin / kChunkElems].data() + begin % kChunkElems,
                end - begin};
    }

    /** Row @p i as a vector of Value (a copy; prefer row()). */
    std::vector<Value>
    operator[](size_t i) const
    {
        const std::span<const T> r = row(i);
        return std::vector<Value>(r.begin(), r.end());
    }

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }

    /** Heap bytes of the offsets (capacity, not size) and chunks. */
    size_t
    bytes() const
    {
        return offsets_.capacity() * sizeof(uint32_t) +
            chunks_.size() * kChunkBytes;
    }

    /** Row-wise: the layout is a function of the rows, and unused
     *  slots stay value-initialized. */
    bool operator==(const FlatBook&) const = default;

  private:
    /** First position of the chunk after the one holding @p pos. */
    static uint64_t
    chunkEnd(uint64_t pos)
    {
        return (pos / kChunkElems + 1) * kChunkElems;
    }

    /**
     * Positions count elements across the chunks in order: position p
     * is chunks_[p / kChunkElems][p % kChunkElems]. offsets_[i + 1] is
     * the position just past row i. Each chunk is allocated at its
     * full size and never resized, so moving chunks_ moves no element.
     */
    std::vector<uint32_t> offsets_ = {0};
    std::vector<std::vector<T>> chunks_;
};

} // namespace deeprecsys

#endif // DRS_BASE_FLAT_BOOK_HH
