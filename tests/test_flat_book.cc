/**
 * @file
 * Tests for the flat book of rows (base/flat_book.hh): rows round-trip
 * in append order, empty rows included; row() is a zero-copy view,
 * contiguous within a chunk, that later appends never move; heap use
 * is the content plus under one chunk; operator[] and iteration yield
 * the same rows by value; equality is row-wise; and an out-of-range
 * row or a row longer than a chunk panics. A book with narrow storage
 * (16-bit elements yielded as uint32_t) round-trips its values, counts
 * 2-byte elements, and panics on a value that does not fit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
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

TEST(FlatBook, RowsAreContiguousWithinAChunk)
{
    const FlatBook<uint32_t> book = bookOf(kRows);
    // Consecutive non-empty rows sit back to back in the first chunk.
    EXPECT_EQ(book.row(2).data(), book.row(0).data() + 1);
    EXPECT_EQ(book.row(4).data(), book.row(2).data() + 3);
    EXPECT_EQ(book.row(5).data(), book.row(4).data() + 2);
    // One offset per row plus one past the end, and one chunk.
    EXPECT_EQ(book.bytes(), (kRows.size() + 1) * sizeof(uint32_t) +
                                FlatBook<uint32_t>::kChunkBytes);
}

TEST(FlatBook, RowThatDoesNotFitStartsTheNextChunk)
{
    constexpr size_t kChunk = FlatBook<uint32_t>::kChunkElems;
    FlatBook<uint32_t> book;
    const std::vector<uint32_t> head(kChunk - 2, 5);
    const std::vector<uint32_t> tail = {1, 2, 3};
    book.appendRow(head);
    book.appendRow({});
    book.appendRow(tail);
    book.appendRow(std::vector<uint32_t>{4});
    EXPECT_EQ(book[0], head);
    EXPECT_TRUE(book.row(1).empty());
    EXPECT_EQ(book[2], tail);
    EXPECT_EQ(book[3], std::vector<uint32_t>{4});
    // The three-element row skipped the first chunk's last two slots.
    EXPECT_NE(book.row(2).data(), book.row(0).data() + head.size());
    EXPECT_EQ(book.row(3).data(), book.row(2).data() + tail.size());
    EXPECT_GE(book.bytes(), 2 * FlatBook<uint32_t>::kChunkBytes);
}

TEST(FlatBook, SpansTakenEarlyStayValidAcrossManyAppends)
{
    FlatBook<uint32_t> book = bookOf(kRows);
    std::vector<std::span<const uint32_t>> early;
    for (size_t i = 0; i < kRows.size(); i++)
        early.push_back(book.row(i));
    for (uint32_t i = 0; i < 100'000; i++)
        book.appendRow(std::vector<uint32_t>(i % 7, i));
    ASSERT_GT(book.bytes(), 20 * FlatBook<uint32_t>::kChunkBytes);
    for (size_t i = 0; i < kRows.size(); i++) {
        EXPECT_TRUE(std::ranges::equal(early[i], kRows[i])) << "row " << i;
        EXPECT_EQ(early[i].data(), book.row(i).data()) << "row " << i;
    }
}

TEST(FlatBook, BytesAreContentPlusUnderOneChunk)
{
    constexpr size_t kAppends = 100'000;
    FlatBook<uint32_t> book;
    book.reserveRows(kAppends);
    size_t ids = 0;
    for (uint32_t i = 0; i < kAppends; i++) {
        const std::vector<uint32_t> row((i * 7919u) % 13, i);
        book.appendRow(row);
        ids += row.size();
    }
    const size_t content = (kAppends + 1 + ids) * sizeof(uint32_t);
    EXPECT_GE(book.bytes(), content);
    EXPECT_LE(book.bytes(), content + FlatBook<uint32_t>::kChunkBytes);
    for (uint32_t i = 0; i < kAppends; i += 997) {
        EXPECT_EQ(book[i], std::vector<uint32_t>((i * 7919u) % 13, i))
            << "row " << i;
    }
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

using NarrowBook = FlatBook<uint16_t, uint32_t>;

NarrowBook
narrowBookOf(const Rows& rows)
{
    NarrowBook book;
    book.reserveRows(rows.size());
    for (const std::vector<uint32_t>& row : rows)
        book.appendRow(row);
    return book;
}

TEST(FlatBookNarrow, ValuesRoundTripThroughTwoByteStorage)
{
    const Rows rows = {{0, 65535}, {}, {1, 40000, 7}, {65534}};
    const NarrowBook book = narrowBookOf(rows);
    ASSERT_EQ(book.size(), rows.size());
    for (size_t i = 0; i < rows.size(); i++) {
        EXPECT_EQ(book[i], rows[i]) << "row " << i;
        const std::span<const uint16_t> stored = book.row(i);
        EXPECT_TRUE(std::ranges::equal(stored, rows[i])) << "row " << i;
    }
    // Rows still sit back to back, two bytes per element.
    EXPECT_EQ(book.row(2).data(), book.row(0).data() + 2);
    EXPECT_EQ(narrowBookOf(rows), book);
}

TEST(FlatBookNarrow, IterationYieldsWideRows)
{
    const NarrowBook book = narrowBookOf(kRows);
    static_assert(std::is_same_v<decltype(*book.begin()),
                                 std::vector<uint32_t>>);
    Rows seen;
    for (const std::vector<uint32_t>& row : book)
        seen.push_back(row);
    EXPECT_EQ(seen, kRows);
}

TEST(FlatBookNarrow, BytesCountTwoByteElements)
{
    static_assert(NarrowBook::kChunkElems == NarrowBook::kChunkBytes / 2);
    constexpr size_t kAppends = 100'000;
    NarrowBook book;
    book.reserveRows(kAppends);
    size_t ids = 0;
    for (uint32_t i = 0; i < kAppends; i++) {
        const std::vector<uint32_t> row((i * 7919u) % 13, i % 65536);
        book.appendRow(row);
        ids += row.size();
    }
    const size_t content =
        (kAppends + 1) * sizeof(uint32_t) + ids * sizeof(uint16_t);
    EXPECT_GE(book.bytes(), content);
    EXPECT_LE(book.bytes(), content + NarrowBook::kChunkBytes);
    for (uint32_t i = 0; i < kAppends; i += 997) {
        EXPECT_EQ(book[i],
                  std::vector<uint32_t>((i * 7919u) % 13, i % 65536))
            << "row " << i;
    }
}

TEST(FlatBookDeath, NarrowValueOutOfRangePanics)
{
    NarrowBook book;
    const std::vector<uint32_t> row = {1, 65536};
    EXPECT_DEATH(book.appendRow(row), "does not fit a flat book element");
}

TEST(FlatBookDeath, RowOutsideTheBookPanics)
{
    const FlatBook<uint32_t> book = bookOf(kRows);
    EXPECT_DEATH((void)book.row(kRows.size()), "row outside the book");
}

TEST(FlatBookDeath, RowLongerThanAChunkPanics)
{
    FlatBook<uint32_t> book;
    const std::vector<uint32_t> row(FlatBook<uint32_t>::kChunkElems + 1);
    EXPECT_DEATH(book.appendRow(row), "longer than a flat book chunk");
}

} // namespace
} // namespace deeprecsys
