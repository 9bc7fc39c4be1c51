/**
 * @file
 * Unit tests for the parallel runtime: inline degeneration at one
 * thread, exception propagation, nested loops, result ordering under
 * concurrency, and DRS_THREADS parsing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "base/thread_pool.hh"

namespace deeprecsys {
namespace {

TEST(ThreadPool, SingleThreadRunsInlineOnCallingThread)
{
    // DRS_THREADS=1 semantics: no workers, everything inline.
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran(4);
    pool.parallelFor(4, [&](size_t i) {
        ran[i] = std::this_thread::get_id();
    });
    for (const std::thread::id& id : ran)
        EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ParallelMapPreservesInputOrder)
{
    ThreadPool pool(4);
    const std::vector<int> out = pool.parallelMap(
        100, [](size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(out.size(), 100u);
    for (size_t i = 0; i < out.size(); i++)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> counts(1000);
    pool.parallelFor(1000, [&](size_t i) { counts[i]++; });
    for (const std::atomic<int>& c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesFromParallelFor)
{
    for (size_t threads : {size_t{1}, size_t{4}}) {
        ThreadPool pool(threads);
        std::atomic<int> completed{0};
        EXPECT_THROW(
            pool.parallelFor(64,
                             [&](size_t i) {
                                 if (i == 13)
                                     throw std::runtime_error("boom");
                                 completed++;
                             }),
            std::runtime_error);
        // Every non-throwing claimed iteration still finished before
        // the rethrow — no torn state behind the caller's back.
        EXPECT_LE(completed.load(), 63);
    }
}

TEST(ThreadPool, NestedParallelForCompletes)
{
    // An outer body that fans out again must complete even when every
    // worker is busy with the outer loop: each caller drains its own
    // loop and waits only for indices already running elsewhere.
    ThreadPool pool(4);
    constexpr size_t kOuter = 16;
    constexpr size_t kInner = 32;
    std::vector<std::atomic<int>> counts(kOuter * kInner);
    pool.parallelFor(kOuter, [&](size_t i) {
        pool.parallelFor(kInner,
                         [&](size_t j) { counts[i * kInner + j]++; });
    });
    for (const std::atomic<int>& c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, DefaultThreadCountIsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

TEST(ThreadPool, ParallelForZeroAndOneAreTrivial)
{
    ThreadPool pool(4);
    pool.parallelFor(0, [](size_t) { FAIL() << "must not run"; });
    std::atomic<int> runs{0};
    pool.parallelFor(1, [&](size_t) { runs++; });
    EXPECT_EQ(runs.load(), 1);
}

std::vector<std::string>&
warnings()
{
    static std::vector<std::string> lines;
    return lines;
}

void
captureSink(const std::string& line)
{
    warnings().push_back(line);
}

/** Sets DRS_THREADS per test and captures the warnings it raises;
 *  restores the variable and the log sink afterwards. */
class DrsThreadsEnv : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (const char* env = std::getenv("DRS_THREADS"))
            saved_ = env;
        warnings().clear();
        previousSink_ = setLogSink(&captureSink);
    }

    void
    TearDown() override
    {
        setLogSink(previousSink_);
        if (saved_)
            setenv("DRS_THREADS", saved_->c_str(), 1);
        else
            unsetenv("DRS_THREADS");
    }

    /** defaultThreadCount() under DRS_THREADS=@p value. */
    static size_t
    countFor(const char* value)
    {
        setenv("DRS_THREADS", value, 1);
        return ThreadPool::defaultThreadCount();
    }

    static size_t
    hardware()
    {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw >= 1 ? hw : 1;
    }

    std::optional<std::string> saved_;
    LogSink previousSink_ = nullptr;
};

TEST_F(DrsThreadsEnv, AcceptsDecimalsUpToTheLimit)
{
    EXPECT_EQ(countFor("1"), 1u);
    EXPECT_EQ(countFor("4"), 4u);
    EXPECT_EQ(countFor("1024"), 1024u);
    EXPECT_TRUE(warnings().empty());
}

TEST_F(DrsThreadsEnv, ZeroAndEmptyMeanHardwareSilently)
{
    EXPECT_EQ(countFor("0"), hardware());
    EXPECT_EQ(countFor(""), hardware());
    unsetenv("DRS_THREADS");
    EXPECT_EQ(ThreadPool::defaultThreadCount(), hardware());
    EXPECT_TRUE(warnings().empty());
}

TEST_F(DrsThreadsEnv, TrailingGarbageIsRejected)
{
    EXPECT_EQ(countFor("4abc"), hardware());
    ASSERT_EQ(warnings().size(), 1u);
    EXPECT_NE(warnings()[0].find("DRS_THREADS=4abc"), std::string::npos);
    EXPECT_NE(warnings()[0].find("not a decimal number"),
              std::string::npos);
}

TEST_F(DrsThreadsEnv, SignsAndSpacesAreRejected)
{
    for (const char* value : {"-1", "+4", " 4", "4 "})
        EXPECT_EQ(countFor(value), hardware()) << value;
    ASSERT_EQ(warnings().size(), 4u);
    for (const std::string& line : warnings())
        EXPECT_NE(line.find("not a decimal number"), std::string::npos);
}

TEST_F(DrsThreadsEnv, ValuesAboveTheLimitAreRejectedAsOutOfRange)
{
    EXPECT_EQ(countFor("2000"), hardware());
    EXPECT_EQ(countFor("1025"), hardware());
    EXPECT_EQ(countFor("99999999999999999999999"), hardware());
    ASSERT_EQ(warnings().size(), 3u);
    for (const std::string& line : warnings()) {
        EXPECT_NE(line.find("above the limit of 1024"), std::string::npos);
        EXPECT_EQ(line.find("not a decimal number"), std::string::npos);
    }
}

} // namespace
} // namespace deeprecsys
