/**
 * @file
 * Tests for the flat book of rows (base/flat_book.hh): rows round-trip
 * in append order, empty rows included; row() is a zero-copy view
 * into one array; operator[] and iteration yield the same rows by
 * value; equality is row-wise; and an out-of-range row panics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "base/flat_book.hh"

namespace deeprecsys {
namespace {

using Rows = std::vector<std::vector<uint32_t>>;

FlatBook<uint32_t>
bookOf(const Rows& rows)
{
    FlatBook<uint32_t> book;
    book.reserveRows(rows.size());
    for (const std::vector<uint32_t>& row : rows)
        book.appendRow(row);
    return book;
}

const Rows kRows = {{3}, {}, {7, 1, 4}, {}, {2, 2}, {9}};

TEST(FlatBook, RowsRoundTripInAppendOrder)
{
    const FlatBook<uint32_t> book = bookOf(kRows);
    ASSERT_EQ(book.size(), kRows.size());
    for (size_t i = 0; i < kRows.size(); i++) {
        EXPECT_EQ(book[i], kRows[i]) << "row " << i;
        EXPECT_EQ(book.row(i).size(), kRows[i].size()) << "row " << i;
    }
    EXPECT_EQ(FlatBook<uint32_t>().size(), 0u);
}

TEST(FlatBook, RowsAreViewsIntoOneArray)
{
    const FlatBook<uint32_t> book = bookOf(kRows);
    // Consecutive non-empty rows sit back to back in one array.
    EXPECT_EQ(book.row(2).data(), book.row(0).data() + 1);
    EXPECT_EQ(book.row(4).data(), book.row(2).data() + 3);
    EXPECT_EQ(book.row(5).data(), book.row(4).data() + 2);
    // One offset per row plus one past the end, and the 7 elements.
    EXPECT_GE(book.bytes(), (kRows.size() + 1 + 7) * sizeof(uint32_t));
}

TEST(FlatBook, IterationYieldsEveryRowByValue)
{
    const FlatBook<uint32_t> book = bookOf(kRows);
    Rows seen;
    for (const std::vector<uint32_t>& row : book)
        seen.push_back(row);
    EXPECT_EQ(seen, kRows);
}

TEST(FlatBook, EqualityIsRowWise)
{
    EXPECT_EQ(bookOf(kRows), bookOf(kRows));
    // Same elements, different row boundaries.
    EXPECT_NE(bookOf({{1, 2}, {3}}), bookOf({{1}, {2, 3}}));
    EXPECT_NE(bookOf({{1}}), bookOf({{1}, {}}));
}

TEST(FlatBookDeath, RowOutsideTheBookPanics)
{
    const FlatBook<uint32_t> book = bookOf(kRows);
    EXPECT_DEATH((void)book.row(kRows.size()), "row outside the book");
}

} // namespace
} // namespace deeprecsys
