/**
 * @file
 * Tests for the sliding-window book (base/window_book.hh): monotonic
 * ids that equal the indices of an ever-growing vector across chunk
 * boundaries, chunk reuse at a bounded live count, spare reuse when
 * the window grows again and when an empty window reopens, reference
 * stability across push, skipping never-issued ids, out-of-order
 * release (slots recycled, the window unchanged, released ids passed
 * without being read), and the retired-, released- and
 * twice-released-id panics.
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

TEST(WindowBook, ReleaseFreesSlotsOutOfOrderAndKeepsTheWindow)
{
    // Release every record but the head and each 100th: the window
    // and its counters move exactly as without releases, and only the
    // held records take slots.
    Book book;
    const uint64_t n = 4 * Book::kChunkSize;
    for (uint64_t i = 0; i < n; i++) {
        book.push(recFor(i));
        if (i > 0 && i % 100 != 0)
            book.release(i);
    }
    EXPECT_EQ(book.live(), n);
    EXPECT_EQ(book.peakLive(), n);
    EXPECT_EQ(book.chunksAllocated(), 4u);
    EXPECT_EQ(book.held(), 1 + (n - 1) / 100);
    EXPECT_EQ(book.peakHeld(), book.held() + 1);
    EXPECT_EQ(book.slotChunks(), 1u);
    for (uint64_t i = 0; i < n; i++) {
        ASSERT_EQ(book.find(i) != nullptr, i % 100 == 0);
        if (book.find(i) != nullptr) {
            EXPECT_EQ(book.find(i), &book[i]);
            EXPECT_EQ(book[i].key, i);
        }
    }

    // The window passes released ids without reading them and stops
    // at the first held record the rule refuses.
    uint64_t read = 0;
    EXPECT_FALSE(book.retireWhile([&](const Rec& r) {
        read++;
        return r.key != 0;
    }));
    EXPECT_EQ(read, 1u);
    EXPECT_TRUE(book.retireWhile([&](const Rec& r) {
        read++;
        return r.key < 1000;
    }));
    EXPECT_EQ(read, 1u + 11u);
    EXPECT_EQ(book.lowId(), 1000u);
    EXPECT_EQ(book.held(), (n - 1) / 100 - 9);
    EXPECT_EQ(book.find(999), nullptr);
    EXPECT_EQ(book.find(n), nullptr);
}

TEST(WindowBook, OnePinnedRecordCostsHandlesNotRecords)
{
    // A head record that never finishes pins the window, but the
    // records behind it are released as they finish: their slots
    // recycle, so the pool stays at one chunk while the window grows.
    Book book;
    book.push(recFor(0));
    std::deque<uint64_t> running;
    for (uint64_t i = 1; i <= 100'000; i++) {
        running.push_back(book.push(recFor(i)));
        if (running.size() > 30) {
            book.release(running.front());
            running.pop_front();
        }
        ASSERT_FALSE(book.retireWhile([](const Rec& r) { return r.key != 0; }));
    }
    EXPECT_EQ(book.peakLive(), 100'001u);
    EXPECT_EQ(book.peakHeld(), 32u);
    EXPECT_EQ(book.slotChunks(), 1u);
    EXPECT_EQ(book.chunksAllocated(), 98u);

    // Once the head finishes, the window drains to the running ones.
    book.release(0);
    EXPECT_TRUE(book.retireWhile([](const Rec&) { return false; }));
    EXPECT_EQ(book.lowId(), running.front());
    EXPECT_EQ(book.held(), running.size());
}

TEST(WindowBook, FreedSlotsAreReusedAndReset)
{
    Book book;
    const uint64_t a = book.push(recFor(1));
    book[a].tags = {4, 5, 6};
    const Rec* slot = &book[a];
    book.release(a);
    // The next record takes the freed slot, with nothing of the
    // released one left in it.
    const uint64_t b = book.push(Rec{.key = 2});
    EXPECT_EQ(&book[b], slot);
    EXPECT_EQ(book[b].key, 2u);
    EXPECT_TRUE(book[b].tags.empty());
    EXPECT_EQ(book.slotChunks(), 1u);
}

TEST(WindowBook, RetireToVisitsHeldRecordsInIdOrder)
{
    Book book;
    for (uint64_t i = 0; i < 8; i++)
        book.push(recFor(i));
    book.release(2);
    book.release(5);
    std::vector<uint64_t> seen;
    book.retireTo(7, [&](const Rec& r) { seen.push_back(r.key); });
    EXPECT_EQ(seen, (std::vector<uint64_t>{0, 1, 3, 4, 6}));
    EXPECT_EQ(book.held(), 1u);
    EXPECT_EQ(book[7].key, 7u);
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

TEST(WindowBookDeath, ReadingAReleasedIdPanics)
{
    Book book;
    for (uint64_t i = 0; i < 3; i++)
        book.push(recFor(i));
    book.release(1);
    EXPECT_EQ(book[0].key, 0u);
    EXPECT_EQ(book[2].key, 2u);
    EXPECT_DEATH((void)book[1], "record already released");
}

TEST(WindowBookDeath, ReleasingTwicePanics)
{
    Book book;
    for (uint64_t i = 0; i < 3; i++)
        book.push(recFor(i));
    book.release(2);
    EXPECT_DEATH(book.release(2), "record already released");
    book.retireTo(1);
    EXPECT_DEATH(book.release(0), "outside the live window");
}

} // namespace
} // namespace deeprecsys
