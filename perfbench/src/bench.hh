/**
 * @file
 * Shared pieces of the repository benchmark: run options, the result
 * report (metrics, output checks, the final JSON line), the digest of
 * simulated statistics, and the in-memory span recorder that times
 * each layer from outside by wrapping the benchmark's own calls into
 * that layer's public functions.
 *
 * Spans are recorded only on traced runs (--trace 1); untraced runs
 * pass a null Tracer and pay one pointer test per span site. A span's
 * self time is its duration minus the durations of its direct child
 * spans. Everything here is single-threaded: spans are opened and
 * closed on the thread that drives the workload.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "loadgen/distributions.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Peak resident set size of this process in MB (getrusage). */
double peakRssMb();

/** Return the heap's free pages to the system (malloc_trim). */
void releaseFreeMemory();

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;   ///< measuring budget, set-ups included
    /** Query sizes of every trace the run draws (set by the workload). */
    deeprecsys::SizeDistKind sizes = deeprecsys::SizeDistKind::Production;
    /**
     * Factor on the offered rates of fleet_day and engine_serve, so
     * that a workload of smaller queries still loads the tier past its
     * capacity at the day's peak.
     */
    double loadScale = 1.0;
    bool trace = false;      ///< record spans, print per-layer metrics
    bool smoke = false;      ///< shrink the workload to seconds
    std::string outDir = ".";///< where a traced run writes its spans

    /** Deterministic sub-seed @p salt of the workload seed. */
    uint64_t subSeed(uint64_t salt) const;
};

/**
 * FNV-1a digest over the bit patterns of simulated statistics: equal
 * digests mean bit-identical results.
 */
class Digest
{
  public:
    void add(uint64_t v);
    void add(double v);
    void add(const deeprecsys::SampleStats& stats);

    uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Span kinds the benchmark records; see spanName for the labels. */
enum class SpanKind : uint8_t
{
    SetupMachines,
    SetupPlacement,
    SetupTrace,
    SetupModel,
    Baseline,
    TuneCpu,
    TuneGpu,
    StaticRun,
    ElasticRun,
    RouteParts,
    TargetMachines,
    ServeRate,
    ObsWrite,
    Rep,
    NumKinds
};

constexpr size_t numSpanKinds = static_cast<size_t>(SpanKind::NumKinds);

/** Trace label of a span kind (a string literal). */
const char* spanName(SpanKind kind);

/** Per-kind totals over a range of recorded spans. */
struct SpanTotals
{
    std::array<double, numSpanKinds> seconds{};
    std::array<double, numSpanKinds> selfSeconds{};
    std::array<uint64_t, numSpanKinds> count{};

    double total(SpanKind k) const { return seconds[size_t(k)]; }
    double self(SpanKind k) const { return selfSeconds[size_t(k)]; }
    uint64_t calls(SpanKind k) const { return count[size_t(k)]; }
};

/** In-memory span recorder (one per traced run). */
class Tracer
{
  public:
    Tracer();

    /** Open a span of @p kind under the innermost open span. */
    size_t begin(SpanKind kind, uint64_t id);

    /** Close span @p idx (must be the innermost open span). */
    void end(size_t idx);

    /** Spans recorded so far (a mark for totals()). */
    size_t size() const { return spans_.size(); }

    /** Totals and self times of spans [first, size()). */
    SpanTotals totals(size_t first) const;

    /**
     * Write every span as Chrome trace-event JSON through
     * obs::TraceEventWriter; the id of each span is in its args.
     */
    bool write(const std::string& path) const;

  private:
    struct Span
    {
        int64_t startNs = 0;
        int64_t endNs = 0;
        uint64_t id = 0;
        uint32_t parent = UINT32_MAX;
        SpanKind kind = SpanKind::Rep;
    };

    int64_t nowNs() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<uint32_t> open_;
};

/** RAII span; a null tracer makes it a no-op. */
class SpanScope
{
  public:
    SpanScope(Tracer* tracer, SpanKind kind, uint64_t id = 0)
        : tracer_(tracer), idx_(tracer ? tracer->begin(kind, id) : 0)
    {
    }

    ~SpanScope()
    {
        if (tracer_)
            tracer_->end(idx_);
    }

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    Tracer* tracer_;
    size_t idx_;
};

/**
 * What one run reports: named metrics with units, output checks
 * counted as operations, digests, and human-readable notes. finish()
 * prints the one-line JSON result last on stdout.
 */
class Report
{
  public:
    /** Record metric @p name (overwrites an earlier value). */
    void metric(const std::string& name, double value, const char* unit);

    /**
     * Count @p ops attempted operations whose output check is @p ok;
     * a failure is logged to stderr and fails the run.
     */
    void check(bool ok, const std::string& what, uint64_t ops = 1);

    /** Print a human-readable report line (stdout, before the JSON). */
    void note(const std::string& line) const;

    bool correct() const { return failed_ == 0 && attempted_ > 0; }

    /** Print the JSON result line; returns the process exit code. */
    int finish() const;

  private:
    struct Value
    {
        double value;
        const char* unit;
    };
    std::map<std::string, Value> metrics_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Wall times, digests and span totals of a workload's repetitions. */
struct RepLog
{
    std::vector<double> walls;         ///< untraced reps
    std::vector<double> tracedWalls;   ///< traced reps
    std::vector<SpanTotals> traced;    ///< per traced rep
    std::vector<Digest> digests;       ///< every rep, in run order
};

/**
 * Run @p rep (called as rep(Tracer*) and returning the digest of its
 * simulated statistics) for the measuring budget @p budget_seconds:
 * at least @p min_reps times, and another rep only while the budget
 * still fits one (and the set-ups after it) at the median times so
 * far. With a tracer, reps alternate untraced / traced (at least one
 * of each), so the traced run measures its own tracing overhead.
 *
 * setups() runs one batch of timed set-ups before the first rep and
 * after every rep. Host speed on a shared machine changes from one
 * second to the next, so set-ups spread over the run give a steadier
 * median than set-ups bunched at its start.
 */
template <typename Setups, typename Fn>
RepLog
measureReps(double budget_seconds, size_t min_reps, Tracer* tracer,
            Setups&& setups, Fn&& rep)
{
    RepLog log;
    std::vector<double> all;
    std::vector<double> batches;
    const Clock::time_point start = Clock::now();
    const auto timedSetups = [&] {
        const Clock::time_point t0 = Clock::now();
        setups();
        batches.push_back(secondsSince(t0));
    };
    if (tracer && min_reps < 2)
        min_reps = 2;
    timedSetups();
    for (size_t i = 0;; i++) {
        Tracer* t = tracer && i % 2 == 1 ? tracer : nullptr;
        const size_t mark = tracer ? tracer->size() : 0;
        const Clock::time_point t0 = Clock::now();
        {
            SpanScope span(t, SpanKind::Rep, i);
            log.digests.push_back(rep(t));
        }
        const double wall = secondsSince(t0);
        all.push_back(wall);
        if (t) {
            log.tracedWalls.push_back(wall);
            log.traced.push_back(t->totals(mark));
        } else {
            log.walls.push_back(wall);
        }
        timedSetups();
        if (all.size() >= min_reps &&
            secondsSince(start) + median(all) + median(batches) >
                budget_seconds)
            break;
    }
    return log;
}

/** "a, b, c" of @p values, for report lines. */
std::string listOf(const std::vector<double>& values);

/** True when every digest of @p log is equal. */
bool sameDigests(const RepLog& log);

/** Wall times and, on traced runs, span totals of each set-up. */
struct SetupLog
{
    std::vector<double> walls;
    std::vector<SpanTotals> totals;
};

/**
 * Time one batch of set-ups (each call setup(Tracer*) builds the whole
 * workload state): at least @p min_count of them and for at least
 * @p min_seconds, or one for a smoke run (@p once). clear() frees the
 * previous state before each set-up, outside the timing, and the freed
 * memory goes back to the system, so that every set-up starts cold
 * from the same heap (as the one set-up of a real process does) rather
 * than building beside the state it replaces or in pages a rep left
 * mapped.
 */
template <typename Clear, typename Fn>
void
timeSetups(bool once, size_t min_count, double min_seconds,
           Tracer* tracer, SetupLog& log, Clear&& clear, Fn&& setup)
{
    const Clock::time_point start = Clock::now();
    for (size_t n = 0; n == 0 || (!once && (n < min_count ||
                                            secondsSince(start) <
                                                min_seconds));
         n++) {
        clear();
        releaseFreeMemory();
        const size_t mark = tracer ? tracer->size() : 0;
        const Clock::time_point t0 = Clock::now();
        setup(tracer);
        log.walls.push_back(secondsSince(t0));
        if (tracer)
            log.totals.push_back(tracer->totals(mark));
    }
}

/** Median over @p totals of one span kind's total seconds. */
double medianTotal(const std::vector<SpanTotals>& totals, SpanKind kind);

/** Median over @p totals of one span kind's self seconds. */
double medianSelf(const std::vector<SpanTotals>& totals, SpanKind kind);

/**
 * Report the four set-up per-layer metrics (traced run) from the
 * set-up span totals.
 */
void reportSetupLayers(Report& report,
                       const std::vector<SpanTotals>& totals);

/** Report trace.overhead_frac: traced over untraced rep wall, - 1. */
void reportTraceOverhead(Report& report, const RepLog& log);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
