/**
 * @file
 * Tests for the sliding-window book (base/window_book.hh): monotonic
 * ids that equal the indices of an ever-growing vector across chunk
 * boundaries, chunk reuse at a bounded live count, reference stability
 * across push, skipping never-issued ids, and the retired-id panic.
 */

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "base/window_book.hh"

namespace deeprecsys {
namespace {

/** A record with heap-owning and plain fields. */
struct Rec
{
    uint64_t key = 0;
    double weight = 0;
    std::vector<uint32_t> tags = {};
};

using Book = WindowBook<Rec>;

Rec
recFor(uint64_t key)
{
    return Rec{.key = key, .weight = 1.0 / static_cast<double>(key + 1)};
}

/** Retire every head record (the owner's rule says all are done). */
bool
anyRecord(const Rec&)
{
    return true;
}

TEST(WindowBook, IdsEqualVectorIndicesAcrossChunkBoundaries)
{
    Book book;
    std::vector<Rec> reference;
    const uint64_t n = 3 * Book::kChunkSize + 17;
    for (uint64_t i = 0; i < n; i++) {
        reference.push_back(recFor(i * 7 + 3));
        EXPECT_EQ(book.push(reference.back()), i);
    }
    EXPECT_EQ(book.nextId(), n);
    EXPECT_EQ(book.live(), n);
    for (uint64_t i = 0; i < n; i++) {
        EXPECT_EQ(book[i].key, reference[i].key);
        EXPECT_EQ(book[i].weight, reference[i].weight);
    }

    // Retire across two chunk boundaries; later ids keep reading
    // their own records and new ids continue the sequence.
    const uint64_t cut = 2 * Book::kChunkSize + 5;
    EXPECT_TRUE(book.retireWhile(
        [&](const Rec& r) { return r.key < reference[cut].key; }));
    EXPECT_EQ(book.lowId(), cut);
    EXPECT_FALSE(book.retireWhile(
        [&](const Rec& r) { return r.key < reference[cut].key; }));
    for (uint64_t i = cut; i < n; i++)
        EXPECT_EQ(book[i].key, reference[i].key);
    EXPECT_EQ(book.push(recFor(99)), n);
    EXPECT_EQ(book[n].key, 99u);
}

TEST(WindowBook, ChunksRecycleAtABoundedLiveCount)
{
    // A million push/retire cycles at 3000 live records: the chunk
    // ring reaches its size early and never grows again.
    constexpr size_t kLive = 3000;
    Book book;
    size_t slots_after_warmup = 0;
    for (uint64_t i = 0; i < 1'000'000; i++) {
        book.push(recFor(i));
        if (book.live() > kLive)
            book.retireTo(book.lowId() + 1);
        if (i == 10 * kLive)
            slots_after_warmup = book.chunkSlots();
    }
    EXPECT_EQ(book.nextId(), 1'000'000u);
    EXPECT_EQ(book.live(), kLive);
    EXPECT_EQ(book.peakLive(), kLive + 1);
    EXPECT_EQ(book.chunkSlots(), slots_after_warmup);
    // Storage covers the live window rounded up to whole chunks and a
    // power-of-two ring: at most twice the chunks the window spans.
    const size_t spanned = (kLive + 1) / Book::kChunkSize + 2;
    EXPECT_LE(book.chunkSlots(), 2 * spanned);
    for (uint64_t id = book.lowId(); id < book.nextId(); id++)
        ASSERT_EQ(book[id].key, id);
}

TEST(WindowBook, ReferencesStayValidAcrossPush)
{
    Book book;
    Rec& first = book[book.push(recFor(42))];
    first.tags = {1, 2, 3};
    // Enough pushes to grow the chunk ring several times over.
    for (uint64_t i = 1; i < 9 * Book::kChunkSize; i++)
        book.push(recFor(i));
    EXPECT_EQ(&book[0], &first);
    EXPECT_EQ(first.key, 42u);
    EXPECT_EQ(first.tags, (std::vector<uint32_t>{1, 2, 3}));
}

TEST(WindowBook, RetireToSkipsIdsNeverIssued)
{
    // An owner that fills ids on demand (the observer's span book)
    // may be told to retire past ids it never issued: they are
    // skipped, and the next push continues from there mid-chunk.
    Book book;
    for (uint64_t i = 0; i < 5; i++)
        book.push(recFor(i));
    book.retireTo(3);
    EXPECT_EQ(book.lowId(), 3u);
    EXPECT_EQ(book.live(), 2u);
    const uint64_t skip_to = 2 * Book::kChunkSize + 300;
    book.retireTo(skip_to);
    EXPECT_EQ(book.live(), 0u);
    EXPECT_EQ(book.push(recFor(7)), skip_to);
    EXPECT_EQ(book[skip_to].key, 7u);
    // Retiring below the window moves nothing.
    book.retireTo(1);
    EXPECT_EQ(book.lowId(), skip_to);
    EXPECT_TRUE(book.retireWhile(anyRecord));
    EXPECT_EQ(book.live(), 0u);
    EXPECT_EQ(book.push(recFor(8)), skip_to + 1);
    EXPECT_EQ(book[skip_to + 1].key, 8u);
}

TEST(WindowBookDeath, ReadingARetiredIdPanics)
{
    WindowBook<std::string> book;
    for (int i = 0; i < 3; i++)
        book.push(std::to_string(i));
    book.retireWhile([](const std::string& s) { return s == "0"; });
    ASSERT_EQ(book.lowId(), 1u);
    EXPECT_EQ(book[1], "1");
    EXPECT_DEATH((void)book[0], "outside the live window");
    EXPECT_DEATH((void)book[3], "outside the live window");
}

} // namespace
} // namespace deeprecsys
