/**
 * @file
 * Unit tests for the logging sink hook: warn lines arrive at
 * an installed LogSink as single complete newline-terminated strings,
 * and removing the sink restores the default stderr path.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/logging.hh"

namespace deeprecsys {
namespace {

// LogSink is a plain function pointer, so the capture buffer is a
// file-local static the test fixture resets.
std::vector<std::string>& captured()
{
    static std::vector<std::string> lines;
    return lines;
}

void captureSink(const std::string& line)
{
    captured().push_back(line);
}

class LogSinkTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        captured().clear();
        previous_ = setLogSink(&captureSink);
    }

    void TearDown() override { setLogSink(previous_); }

    LogSink previous_ = nullptr;
};

TEST_F(LogSinkTest, WarnArrivesAsOneCompleteLine)
{
    drs_warn("disk ", 3, " is ", 0.5, " full");
    ASSERT_EQ(captured().size(), 1u);
    EXPECT_EQ(captured()[0], "warn: disk 3 is 0.5 full\n");
}

TEST_F(LogSinkTest, LinesArriveInEmissionOrder)
{
    drs_warn("first");
    drs_warn("second");
    drs_warn("third");
    ASSERT_EQ(captured().size(), 3u);
    EXPECT_EQ(captured()[0], "warn: first\n");
    EXPECT_EQ(captured()[1], "warn: second\n");
    EXPECT_EQ(captured()[2], "warn: third\n");
}

TEST_F(LogSinkTest, SetLogSinkReturnsThePreviousSink)
{
    // SetUp installed captureSink; installing again must hand it back.
    const LogSink prev = setLogSink(&captureSink);
    EXPECT_EQ(prev, &captureSink);
}

TEST_F(LogSinkTest, NullRestoresTheDefaultStderrSink)
{
    setLogSink(nullptr);
    ::testing::internal::CaptureStderr();
    drs_warn("to stderr");
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(err, "warn: to stderr\n");
    EXPECT_TRUE(captured().empty());
    // Re-install for TearDown symmetry (it restores previous_).
    setLogSink(&captureSink);
}

} // namespace
} // namespace deeprecsys
