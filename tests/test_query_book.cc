/**
 * @file
 * Tests for the cluster drivers' query book (cluster/query_book.hh):
 * the part-id packing at each field's edge and its drs_fatal on an
 * over-wide slot or position, reference stability across push,
 * out-of-order release, freed slots reused last-in first-out and
 * reset, a pinned straggler that costs later arrivals no slot, and the
 * stale-handle panics (a released handle read or released again, and
 * a handle whose slot a later push reused).
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "cluster/query_book.hh"

namespace deeprecsys {
namespace {

/** Push a record of trace query @p key that owns one part. */
uint64_t
pushRec(QueryBook& book, uint64_t key)
{
    const uint64_t query = book.push(key);
    book[query].parts.push_back(
        PartRec{.machine = static_cast<uint32_t>(key % 7)});
    return query;
}

// ------------------------------------------------------------ handles

TEST(QueryHandle, PacksEachFieldAtItsWidthsEdge)
{
    EXPECT_EQ(kSlotBits + kRecordGenBits + kPosBits, 64u);
    const uint64_t max_slot = kMaxHeldQueries - 1;
    const uint64_t max_pos = kMaxQueryParts - 1;
    for (uint64_t slot : {uint64_t{0}, uint64_t{1}, max_slot}) {
        for (uint16_t gen : {uint16_t{0}, uint16_t{1}, uint16_t{0xffff}}) {
            const uint64_t query = queryHandle(slot, gen);
            EXPECT_EQ(slotOfQuery(query), slot);
            EXPECT_EQ(recordGenOfQuery(query), gen);
            EXPECT_EQ(posOfPart(query), 0u);
            for (uint64_t pos : {uint64_t{0}, uint64_t{1}, max_pos}) {
                const uint64_t part = partId(query, pos);
                EXPECT_EQ(queryOfPart(part), query);
                EXPECT_EQ(posOfPart(part), pos);
                EXPECT_EQ(slotOfQuery(queryOfPart(part)), slot);
                EXPECT_EQ(recordGenOfQuery(queryOfPart(part)), gen);
            }
        }
    }
    // Every field at its widest fills all 64 bits.
    EXPECT_EQ(partId(queryHandle(max_slot, 0xffff), max_pos), UINT64_MAX);
}

TEST(QueryHandleDeath, OverWideFieldsAreFatal)
{
    EXPECT_EXIT((void)partId(queryHandle(3, 5), kMaxQueryParts),
                testing::ExitedWithCode(1),
                "a query has more than 16777216 parts");
    EXPECT_EXIT((void)queryHandle(kMaxHeldQueries, 0),
                testing::ExitedWithCode(1),
                "more than 16777216 queries held at once");
}

// --------------------------------------------------------------- pool

TEST(QueryBook, ReferencesStayValidAcrossPush)
{
    QueryBook book;
    const uint64_t first_id = pushRec(book, 42);
    QueryState& first = book[first_id];
    first.size = 123;
    // Enough pushes to open (and never release) nine chunks.
    for (uint64_t i = 1; i < 9 * QueryBook::kChunkSize; i++)
        pushRec(book, i);
    EXPECT_EQ(&book[first_id], &first);
    EXPECT_EQ(first.traceIdx, 42u);
    EXPECT_EQ(first.size, 123u);
    ASSERT_EQ(first.parts.size(), 1u);
    EXPECT_EQ(first.parts[0].machine, 0u);
}

TEST(QueryBook, ReleaseFreesSlotsOutOfOrder)
{
    // Release every record but each 100th, in push order: only the
    // held records keep slots, and a released handle finds nothing.
    QueryBook book;
    const uint64_t n = 4 * QueryBook::kChunkSize;
    std::vector<uint64_t> ids;
    for (uint64_t i = 0; i < n; i++) {
        ids.push_back(pushRec(book, i));
        if (i % 100 != 0)
            book.release(ids.back());
    }
    EXPECT_EQ(book.held(), 1 + (n - 1) / 100);
    EXPECT_EQ(book.peakHeld(), book.held() + 1);
    EXPECT_EQ(book.slotsIssued(), book.peakHeld());
    for (uint64_t i = 0; i < n; i++) {
        ASSERT_EQ(book.find(ids[i]) != nullptr, i % 100 == 0) << i;
        if (book.find(ids[i]) != nullptr) {
            EXPECT_EQ(book.find(ids[i]), &book[ids[i]]);
            EXPECT_EQ(book[ids[i]].traceIdx, i);
        }
    }
    // Releasing the held ones out of order empties the book.
    for (uint64_t i = n; i-- > 0;) {
        if (i % 100 == 0)
            book.release(ids[i]);
    }
    EXPECT_EQ(book.held(), 0u);
    EXPECT_EQ(book.anyHeld(), nullptr);
}

TEST(QueryBook, FreedSlotsAreReusedLastInFirstOutAndReset)
{
    QueryBook book;
    const uint64_t a = pushRec(book, 1);
    const uint64_t b = pushRec(book, 2);
    const uint64_t c = pushRec(book, 3);
    book[b].parts.resize(5);
    book[b].settled = true;
    const QueryState* slot_a = &book[a];
    const QueryState* slot_b = &book[b];
    book.release(a);
    book.release(b);
    // The next push takes the slot freed last, with nothing of the
    // released record left in it; the one after takes the other.
    const uint64_t d = book.push(4);
    EXPECT_EQ(&book[d], slot_b);
    EXPECT_EQ(slotOfQuery(d), slotOfQuery(b));
    EXPECT_EQ(recordGenOfQuery(d), recordGenOfQuery(b) + 1);
    EXPECT_EQ(book[d].traceIdx, 4u);
    EXPECT_TRUE(book[d].parts.empty());
    EXPECT_FALSE(book[d].settled);
    const uint64_t e = book.push(0);
    EXPECT_EQ(&book[e], slot_a);
    EXPECT_TRUE(book[e].parts.empty());
    EXPECT_EQ(book[c].traceIdx, 3u);
    EXPECT_EQ(book.slotsIssued(), 3u);
    // The old handles find nothing, though their slots are held again.
    EXPECT_EQ(book.find(a), nullptr);
    EXPECT_EQ(book.find(b), nullptr);
}

TEST(QueryBook, PinnedStragglerCostsLaterArrivalsNothing)
{
    // A head record that never finishes, and 100,000 later arrivals
    // released as they finish with 30 running at once: the book hands
    // out a fresh slot only when none is free, so it issues exactly
    // its peak held count of slots, one chunk's worth.
    QueryBook book;
    const uint64_t straggler = pushRec(book, 0);
    std::deque<uint64_t> running;
    for (uint64_t i = 1; i <= 100'000; i++) {
        running.push_back(pushRec(book, i));
        if (running.size() > 30) {
            book.release(running.front());
            running.pop_front();
        }
    }
    EXPECT_EQ(book.peakHeld(), 32u);
    EXPECT_EQ(book.slotsIssued(), book.peakHeld());
    EXPECT_EQ(book[straggler].traceIdx, 0u);
    EXPECT_EQ(book.held(), running.size() + 1);

    // Once the straggler finishes, its slot is the next one reused.
    book.release(straggler);
    const uint64_t next = pushRec(book, 100'001);
    EXPECT_EQ(slotOfQuery(next), slotOfQuery(straggler));
    EXPECT_EQ(book.slotsIssued(), 32u);
}

TEST(QueryBook, AnyHeldFindsTheLastHeldRecord)
{
    QueryBook book;
    std::vector<uint64_t> ids;
    for (uint64_t i = 0; i < 5; i++)
        ids.push_back(pushRec(book, i));
    for (uint64_t i : {0, 1, 2, 4})
        book.release(ids[i]);
    ASSERT_NE(book.anyHeld(), nullptr);
    EXPECT_EQ(book.anyHeld()->traceIdx, 3u);
    book.release(ids[3]);
    EXPECT_EQ(book.anyHeld(), nullptr);
}

TEST(QueryBookDeath, ReadingAReleasedHandlePanics)
{
    QueryBook book;
    std::vector<uint64_t> ids;
    for (uint64_t i = 0; i < 3; i++)
        ids.push_back(pushRec(book, i));
    book.release(ids[1]);
    EXPECT_EQ(book[ids[0]].traceIdx, 0u);
    EXPECT_EQ(book[ids[2]].traceIdx, 2u);
    EXPECT_DEATH((void)book[ids[1]], "stale query handle");
}

TEST(QueryBookDeath, ReleasingTwicePanics)
{
    QueryBook book;
    std::vector<uint64_t> ids;
    for (uint64_t i = 0; i < 3; i++)
        ids.push_back(pushRec(book, i));
    book.release(ids[2]);
    EXPECT_DEATH(book.release(ids[2]), "stale query handle");
    EXPECT_DEATH((void)book[queryHandle(3, 0)], "never issued");
}

TEST(QueryBookDeath, StaleHandleOfAReusedSlotPanics)
{
    // A later push reuses the released slot: the old handle names the
    // same slot but an older record generation, so reading it, or
    // releasing it, panics rather than reach the new record.
    QueryBook book;
    const uint64_t old_id = pushRec(book, 1);
    book.release(old_id);
    const uint64_t new_id = pushRec(book, 2);
    ASSERT_EQ(slotOfQuery(new_id), slotOfQuery(old_id));
    EXPECT_EQ(book[new_id].traceIdx, 2u);
    EXPECT_EQ(book.find(old_id), nullptr);
    EXPECT_DEATH((void)book[old_id], "stale query handle");
    EXPECT_DEATH(book.release(old_id), "stale query handle");
}

} // namespace
} // namespace deeprecsys
