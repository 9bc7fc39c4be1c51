/**
 * @file
 * Tests for the bench harness's command line and file writer
 * (bench/bench_common.hh): the options each bench declares parse to
 * their values; an unknown option, one the bench does not take, an
 * option without its file, or a second path exits non-zero before
 * anything is written; and a file that cannot be written exits
 * non-zero instead of printing "wrote".
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"

namespace deeprecsys {
namespace {

namespace fs = std::filesystem;
using bench::BenchArgs;
using bench::MetricsFlag;
using bench::SmokeFlag;
using bench::TraceFlag;

constexpr unsigned kAllFlags = SmokeFlag | TraceFlag | MetricsFlag;

/** parseBenchArgs over @p words, argv[0] included. */
BenchArgs
parse(std::vector<std::string> words, unsigned flags)
{
    std::vector<char*> argv;
    for (std::string& w : words)
        argv.push_back(w.data());
    argv.push_back(nullptr);
    return bench::parseBenchArgs(static_cast<int>(words.size()),
                                 argv.data(), flags);
}

/** A one-row table to write. */
TextTable
smallTable()
{
    TextTable table({"name", "value"});
    table.addRow({"a", "1.5"});
    return table;
}

std::string
readFile(const fs::path& path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * Each test runs in its own empty directory, named after the test so
 * that a death test's child (which re-runs the test body) writes into
 * the directory its parent then inspects.
 */
class BenchCli : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::temp_directory_path() /
            (std::string("drs_bench_cli_") + info->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        previous_ = fs::current_path();
        fs::current_path(dir_);
    }

    void
    TearDown() override
    {
        fs::current_path(previous_);
        fs::remove_all(dir_);
    }

    /** Parse @p words as a bench taking @p flags would, then write
     *  its table to the JSON path, as every bench does. */
    static void
    runBench(const std::vector<std::string>& words, unsigned flags)
    {
        bench::writeTableJson(parse(words, flags).jsonPath, smallTable());
    }

    fs::path dir_;
    fs::path previous_;
};

TEST_F(BenchCli, NoArgumentsTakeTheDefaults)
{
    const BenchArgs args = parse({"bench"}, kAllFlags);
    EXPECT_FALSE(args.smoke);
    EXPECT_TRUE(args.tracePath.empty());
    EXPECT_TRUE(args.metricsPath.empty());
    EXPECT_TRUE(args.jsonPath.empty());
}

TEST_F(BenchCli, EveryOptionParsesToItsValue)
{
    const BenchArgs args = parse({"bench", "--smoke", "--trace", "t.json",
                                  "--metrics", "m.json", "out.json"},
                                 kAllFlags);
    EXPECT_TRUE(args.smoke);
    EXPECT_EQ(args.tracePath, "t.json");
    EXPECT_EQ(args.metricsPath, "m.json");
    EXPECT_EQ(args.jsonPath, "out.json");
}

TEST_F(BenchCli, OptionsAndThePathParseInAnyOrder)
{
    const BenchArgs args = parse(
        {"bench", "out.json", "--metrics", "m.json", "--smoke"}, kAllFlags);
    EXPECT_TRUE(args.smoke);
    EXPECT_TRUE(args.tracePath.empty());
    EXPECT_EQ(args.metricsPath, "m.json");
    EXPECT_EQ(args.jsonPath, "out.json");
}

TEST_F(BenchCli, APathOnlyBenchTakesItsPath)
{
    EXPECT_EQ(parse({"bench", "sweep.json"}, 0).jsonPath, "sweep.json");
    EXPECT_FALSE(parse({"bench", "sweep.json"}, 0).smoke);
}

TEST_F(BenchCli, UnknownOptionExitsAndWritesNothing)
{
    // Before the shared parser, "--smok" became the JSON path: the
    // bench ran in full and wrote its table to a file named "--smok".
    EXPECT_EXIT(runBench({"bench", "--smok"}, SmokeFlag),
                ::testing::ExitedWithCode(2), "unrecognized option --smok");
    EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(BenchCli, OptionTheBenchDoesNotTakeExitsAndWritesNothing)
{
    EXPECT_EXIT(runBench({"bench", "--trace", "t.json", "out.json"},
                         SmokeFlag),
                ::testing::ExitedWithCode(2), "unrecognized option --trace");
    EXPECT_EXIT(runBench({"bench", "--smoke", "out.json"}, 0),
                ::testing::ExitedWithCode(2), "unrecognized option --smoke");
    EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(BenchCli, OptionWithoutItsFileExitsAndWritesNothing)
{
    EXPECT_EXIT(runBench({"bench", "out.json", "--trace"}, kAllFlags),
                ::testing::ExitedWithCode(2), "--trace needs a file path");
    // The next option is not a file: it is not taken as the path.
    EXPECT_EXIT(runBench({"bench", "--metrics", "--smoke", "out.json"},
                         kAllFlags),
                ::testing::ExitedWithCode(2), "--metrics needs a file path");
    EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(BenchCli, SecondPathExitsAndWritesNothing)
{
    EXPECT_EXIT(runBench({"bench", "a.json", "b.json"}, SmokeFlag),
                ::testing::ExitedWithCode(2), "more than one output path");
    EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(BenchCli, WriterWritesTheTableAndSaysSo)
{
    ::testing::internal::CaptureStdout();
    runBench({"bench", "out.json"}, SmokeFlag);
    EXPECT_EQ(::testing::internal::GetCapturedStdout(), "wrote out.json\n");

    std::ostringstream expected;
    smallTable().printJson(expected);
    EXPECT_EQ(readFile(dir_ / "out.json"), expected.str());
}

TEST_F(BenchCli, EmptyPathWritesNothing)
{
    ::testing::internal::CaptureStdout();
    runBench({"bench", "--smoke"}, SmokeFlag);
    EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");
    EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(BenchCli, UnwritablePathExitsNonZero)
{
    // Before the shared writer, this printed "wrote ..." and exited 0.
    const std::string path = (dir_ / "missing_dir" / "out.json").string();
    EXPECT_EXIT(runBench({"bench", "--smoke", path}, SmokeFlag),
                ::testing::ExitedWithCode(1), "cannot open .*out.json");
    EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(BenchCli, ShortWriteIsAFailedWrite)
{
    if (!fs::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this host";
    // The open succeeds; the flush fails with ENOSPC.
    EXPECT_FALSE(writeTextFile("/dev/full", "JSON", [](std::ostream& os) {
        smallTable().printJson(os);
    }));
}

TEST_F(BenchCli, ObserverFilesGoThroughTheWriter)
{
    obs::RunObserver observer(obs::ObsConfig::full(1.0), 1);
    BenchArgs args;
    args.tracePath = "trace.json";
    args.metricsPath = "metrics.json";
    ::testing::internal::CaptureStdout();
    bench::writeObserverFiles(args, observer);
    EXPECT_EQ(::testing::internal::GetCapturedStdout(),
              "wrote trace.json\nwrote metrics.json\n");

    std::ostringstream trace;
    std::ostringstream metrics;
    observer.writeTrace(trace);
    observer.writeMetrics(metrics);
    EXPECT_EQ(readFile(dir_ / "trace.json"), trace.str());
    EXPECT_EQ(readFile(dir_ / "metrics.json"), metrics.str());

    args.metricsPath = (dir_ / "missing_dir" / "metrics.json").string();
    EXPECT_EXIT(bench::writeObserverFiles(args, observer),
                ::testing::ExitedWithCode(1), "cannot open .*metrics.json");
}

} // namespace
} // namespace deeprecsys
