/**
 * @file
 * Tests for the sliding-window book (base/window_book.hh): monotonic
 * ids that equal the indices of an ever-growing vector across chunk
 * boundaries, chunk reuse at a bounded live count, spare reuse when
 * the window grows again and when an empty window reopens, reference
 * stability across push, skipping never-issued ids, and the
 * retired-id panic.
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
    // A million push/retire cycles at 4300 live records: the book
    // reaches its chunk count early and never allocates again.
    constexpr size_t kLive = 4300;
    Book book;
    size_t chunks_after_warmup = 0;
    for (uint64_t i = 0; i < 1'000'000; i++) {
        book.push(recFor(i));
        if (book.live() > kLive)
            book.retireTo(book.lowId() + 1);
        if (i == 10 * kLive)
            chunks_after_warmup = book.chunksAllocated();
    }
    EXPECT_EQ(book.nextId(), 1'000'000u);
    EXPECT_EQ(book.live(), kLive);
    EXPECT_EQ(book.peakLive(), kLive + 1);
    EXPECT_EQ(book.chunksAllocated(), chunks_after_warmup);
    // Storage is the chunks the widest window (kLive + 1 records)
    // spans, plus at most one spare between a release and the next
    // open. A power-of-two ring would hold 8 here.
    const size_t spanned =
        (kLive + Book::kChunkSize - 1) / Book::kChunkSize + 1;
    EXPECT_LE(book.chunksAllocated(), spanned + 1);
    for (uint64_t id = book.lowId(); id < book.nextId(); id++)
        ASSERT_EQ(book[id].key, id);
}

TEST(WindowBook, RegrowthReusesSparesAndAllocatesNothing)
{
    // Grow to five whole chunks, shrink to one live record, then grow
    // back to a window spanning five chunks again: every chunk the
    // regrowth opens is a spare from the shrink.
    constexpr uint64_t k = Book::kChunkSize;
    Book book;
    for (uint64_t i = 0; i < 5 * k; i++)
        book.push(recFor(i));
    EXPECT_EQ(book.chunksAllocated(), 5u);

    book.retireTo(5 * k - 1);
    EXPECT_EQ(book.live(), 1u);
    EXPECT_EQ(book.chunksAllocated(), 5u);

    for (uint64_t i = 5 * k; i < 9 * k; i++) {
        book.push(recFor(i));
        ASSERT_EQ(book.chunksAllocated(), 5u) << "at id " << i;
    }
    EXPECT_EQ(book.live(), 4 * k + 1);
    for (uint64_t id = book.lowId(); id < book.nextId(); id++)
        ASSERT_EQ(book[id].key, id);

    // One record past five spanned chunks needs a sixth.
    book.push(recFor(9 * k));
    EXPECT_EQ(book.chunksAllocated(), 6u);
}

TEST(WindowBook, EmptyWindowReopensOnItsOwnChunk)
{
    constexpr uint64_t k = Book::kChunkSize;
    Book book;
    for (uint64_t i = 0; i < 10; i++)
        book.push(recFor(i));

    // Emptied mid-chunk: the chunk still holds the next id.
    EXPECT_TRUE(book.retireWhile(anyRecord));
    EXPECT_EQ(book.live(), 0u);
    EXPECT_EQ(book.push(recFor(10)), 10u);
    EXPECT_EQ(book[10].key, 10u);
    EXPECT_EQ(book.chunksAllocated(), 1u);

    // Emptied exactly at a chunk boundary: the chunk goes spare and
    // the next push reopens it as the following chunk.
    for (uint64_t i = 11; i < k; i++)
        book.push(recFor(i));
    book.retireTo(k);
    EXPECT_EQ(book.live(), 0u);
    EXPECT_EQ(book.push(recFor(k)), k);
    EXPECT_EQ(book[k].key, k);
    EXPECT_EQ(book.chunksAllocated(), 1u);

    // Emptied by skipping ids never issued, chunks ahead: the spare
    // reopens mid-chunk at the skipped-to id.
    const uint64_t skip_to = 7 * k + 300;
    book.retireTo(skip_to);
    EXPECT_EQ(book.push(recFor(skip_to)), skip_to);
    EXPECT_EQ(book.push(recFor(skip_to + 1)), skip_to + 1);
    EXPECT_EQ(book[skip_to].key, skip_to);
    EXPECT_EQ(book[skip_to + 1].key, skip_to + 1);
    EXPECT_EQ(book.chunksAllocated(), 1u);
}

TEST(WindowBook, ReferencesStayValidAcrossPush)
{
    Book book;
    Rec& first = book[book.push(recFor(42))];
    first.tags = {1, 2, 3};
    // Enough pushes to open (and never release) nine chunks.
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
