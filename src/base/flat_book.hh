/**
 * @file
 * A flat book of rows: many short, variable-length rows stored as one
 * offsets array plus one array of elements, in row order.
 *
 * A vector of vectors pays a heap block and three words per row; this
 * pays one 32-bit offset per row and nothing else, and its rows are
 * contiguous. Rows are appended whole and never change afterwards.
 */

#ifndef DRS_BASE_FLAT_BOOK_HH
#define DRS_BASE_FLAT_BOOK_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "base/logging.hh"

namespace deeprecsys {

/** Append-only rows of T, addressed by row index. */
template <typename T>
class FlatBook
{
  public:
    /** Iterator over the rows, each yielded by value. */
    class const_iterator
    {
      public:
        const_iterator(const FlatBook* book, size_t row)
            : book_(book), row_(row) {}

        std::vector<T> operator*() const { return (*book_)[row_]; }

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

    /** Append @p row as row size(). */
    void
    appendRow(std::span<const T> row)
    {
        items_.insert(items_.end(), row.begin(), row.end());
        drs_assert(items_.size() <= UINT32_MAX,
                   "flat book outgrew its 32-bit offsets");
        offsets_.push_back(static_cast<uint32_t>(items_.size()));
    }

    /** Pre-size the offsets for @p rows rows in all. */
    void reserveRows(size_t rows) { offsets_.reserve(rows + 1); }

    /** Rows appended so far. */
    size_t size() const { return offsets_.size() - 1; }

    /** Row @p i, zero-copy; valid until the next append. */
    std::span<const T>
    row(size_t i) const
    {
        drs_assert(i < size(), "row outside the book");
        return {items_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
    }

    /** Row @p i as a vector (a copy; prefer row()). */
    std::vector<T>
    operator[](size_t i) const
    {
        const std::span<const T> r = row(i);
        return std::vector<T>(r.begin(), r.end());
    }

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }

    /** Heap bytes the book holds (capacity, not size). */
    size_t
    bytes() const
    {
        return offsets_.capacity() * sizeof(uint32_t) +
            items_.capacity() * sizeof(T);
    }

    bool operator==(const FlatBook&) const = default;

  private:
    /** Row i is items_[offsets_[i], offsets_[i + 1]). */
    std::vector<uint32_t> offsets_ = {0};
    std::vector<T> items_;
};

} // namespace deeprecsys

#endif // DRS_BASE_FLAT_BOOK_HH
