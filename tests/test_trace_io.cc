/**
 * @file
 * Tests for query-trace persistence (record / replay).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>

#include "loadgen/query_stream.hh"
#include "loadgen/trace_io.hh"

namespace deeprecsys {
namespace {

TEST(TraceIo, RoundTripPreservesQueries)
{
    LoadSpec spec;
    spec.qps = 300.0;
    QueryStream stream(spec);
    const QueryTrace original = stream.generate(200);

    std::stringstream buffer;
    writeTrace(buffer, original);
    const QueryTrace replayed = readTrace(buffer);

    ASSERT_EQ(replayed.size(), original.size());
    for (size_t i = 0; i < original.size(); i++) {
        EXPECT_EQ(replayed[i].id, original[i].id);
        EXPECT_DOUBLE_EQ(replayed[i].arrivalSeconds,
                         original[i].arrivalSeconds);
        EXPECT_EQ(replayed[i].size, original[i].size);
    }
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    std::stringstream buffer;
    writeTrace(buffer, {});
    EXPECT_TRUE(readTrace(buffer).empty());
}

TEST(TraceIo, HeaderIdentifiesFormat)
{
    std::stringstream buffer;
    writeTrace(buffer, {});
    EXPECT_EQ(buffer.str().rfind("deeprecsys-trace v2", 0), 0u);
}

/** Every field of every query, arrivals compared bit for bit. */
void
expectSameTrace(const QueryTrace& a, const QueryTrace& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].id, b[i].id) << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(a[i].arrivalSeconds),
                  std::bit_cast<uint64_t>(b[i].arrivalSeconds))
            << i;
        EXPECT_EQ(a[i].size, b[i].size) << i;
        EXPECT_EQ(a[i].model, b[i].model) << i;
        EXPECT_EQ(a[i].priorityClass, b[i].priorityClass) << i;
    }
}

TEST(TraceIo, MixedPrioritisedTraceRoundTripsBitEqual)
{
    LoadSpec base;
    MixedTraceTemplate mixed(base, {0.5, 0.3, 0.2});
    mixed.ensure(600);
    QueryTrace original = mixed.materialize(900.0, 600);
    assignPriorityClasses(original, 3, 0xc1a55);
    ASSERT_TRUE(std::ranges::any_of(
        original, [](const Query& q) { return q.model == 2; }));
    ASSERT_TRUE(std::ranges::any_of(
        original, [](const Query& q) { return q.priorityClass == 2; }));

    std::stringstream buffer;
    writeTrace(buffer, original);
    expectSameTrace(readTrace(buffer), original);
}

TEST(TraceIo, VersionOneFileLoadsAsModelZeroClassZero)
{
    std::stringstream buffer(
        "deeprecsys-trace v1 2\n0 0.25 10\n1 0.5 400\n");
    const QueryTrace trace = readTrace(buffer);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[1].id, 1u);
    EXPECT_EQ(trace[1].arrivalSeconds, 0.5);
    EXPECT_EQ(trace[1].size, 400u);
    for (const Query& q : trace) {
        EXPECT_EQ(q.model, 0u);
        EXPECT_EQ(q.priorityClass, 0u);
    }
}

TEST(TraceIo, SixteenBitModelAndClassExtremesRoundTrip)
{
    QueryTrace original(1);
    original[0].model = 65535;
    original[0].priorityClass = 65535;
    std::stringstream buffer;
    writeTrace(buffer, original);
    expectSameTrace(readTrace(buffer), original);
}

TEST(TraceIo, FileRoundTrip)
{
    LoadSpec spec;
    QueryStream stream(spec);
    const QueryTrace original = stream.generate(50);
    const std::string path = "/tmp/drs_trace_test.txt";
    saveTrace(path, original);
    const QueryTrace replayed = loadTrace(path);
    ASSERT_EQ(replayed.size(), original.size());
    EXPECT_EQ(replayed.back().size, original.back().size);
}

using TraceIoDeath = ::testing::Test;

TEST(TraceIoDeath, RejectsBadMagic)
{
    std::stringstream buffer("not-a-trace v1 0\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "bad magic");
}

TEST(TraceIoDeath, RejectsTruncatedBody)
{
    std::stringstream buffer("deeprecsys-trace v1 3\n0 0.0 10\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "truncated");
}

TEST(TraceIoDeath, RejectsUnsortedArrivals)
{
    std::stringstream buffer(
        "deeprecsys-trace v1 2\n0 5.0 10\n1 1.0 10\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "not sorted");
}

TEST(TraceIoDeath, RejectsModelOutside16Bits)
{
    std::stringstream buffer("deeprecsys-trace v2 1\n0 0.0 10 65536 0\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "out-of-range model: 65536");
}

TEST(TraceIoDeath, RejectsClassOutside16Bits)
{
    std::stringstream buffer("deeprecsys-trace v2 1\n0 0.0 10 0 70000\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "out-of-range class: 70000");
}

TEST(TraceIoDeath, RejectsVersionOneLineInVersionTwoFile)
{
    std::stringstream buffer("deeprecsys-trace v2 2\n0 0.0 10\n1 1.0 10\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "has 3 fields, expected 5");
}

TEST(TraceIoDeath, HugeHeaderCountIsAValidatedError)
{
    // The count must not size an allocation: 10^13 queries would be
    // an uncaught std::bad_alloc before the first line is read.
    std::stringstream buffer("deeprecsys-trace v2 10000000000000\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "truncated at query 0 of 10000000000000");
}

TEST(TraceIoDeath, RejectsNegativeCount)
{
    std::stringstream buffer("deeprecsys-trace v2 -1\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "invalid query count: -1");
}

TEST(TraceIoDeath, RejectsNegativeSize)
{
    // Read as unsigned, -5 would wrap to 4294967291 and pass size >= 1.
    std::stringstream buffer("deeprecsys-trace v1 1\n0 0.0 -5\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "out-of-range size: -5");
}

TEST(TraceIoDeath, RejectsSizeOutside32Bits)
{
    std::stringstream buffer("deeprecsys-trace v1 1\n0 0.0 4294967296\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "out-of-range size: 4294967296");
}

TEST(TraceIoDeath, RejectsNegativeArrival)
{
    std::stringstream buffer("deeprecsys-trace v2 1\n0 -0.5 10 0 0\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "out-of-range arrival: -0.5");
}

TEST(TraceIoDeath, RejectsUnknownVersion)
{
    std::stringstream buffer("deeprecsys-trace v9 0\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "version");
}

} // namespace
} // namespace deeprecsys
