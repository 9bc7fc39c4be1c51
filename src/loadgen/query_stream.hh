/**
 * @file
 * Query trace generation combining an arrival process with a size
 * distribution — the DeepRecInfra load generator front-end (Figure 8).
 */

#ifndef DRS_LOADGEN_QUERY_STREAM_HH
#define DRS_LOADGEN_QUERY_STREAM_HH

#include <cstdint>

#include "loadgen/distributions.hh"
#include "loadgen/query.hh"

namespace deeprecsys {

/** Configuration of one generated query stream. */
struct LoadSpec
{
    SizeDistKind sizes = SizeDistKind::Production;
    double qps = 100.0;
    uint64_t arrivalSeed = 1;
    uint64_t sizeSeed = 2;
};

/**
 * The one Poisson trace draw: sizes and *unit-rate* inter-arrival
 * gaps are drawn once, and materialize() re-times them at any rate,
 * query i arriving gap(i) / rate after query i - 1. Sizes are drawn
 * from a stream independent of the arrival stream, so sweeping the
 * rate (e.g. during max-QPS bisection) re-times the *same* query
 * population, which keeps search results monotone and reproducible:
 * the QPS searches re-time one drawn population per candidate rate
 * instead of regenerating the trace per evaluation. QueryStream is a
 * cursor over one template at one rate.
 *
 * Thread-safety: ensure() mutates and must be called from one thread;
 * materialize() is const and safe to call concurrently afterwards.
 */
class TraceTemplate
{
  public:
    explicit TraceTemplate(const LoadSpec& spec);

    /** Draw through @p count queries (monotone; cheap when already
     *  drawn). Prefixes are stable: growing never redraws. The gap
     *  and size streams draw as two tasks on the shared pool. */
    void ensure(size_t count);

    /**
     * Queries [first, first + count) re-timed at @p qps, with ids
     * their indices; query @p first arrives its gap after
     * @p start_seconds, which is 0 for the first query and the
     * previous query's arrival otherwise (how QueryStream continues
     * its clock). Requires ensure(first + count) to have happened.
     * Fatal unless @p qps is positive.
     */
    QueryTrace materialize(double qps, size_t count, size_t first = 0,
                           double start_seconds = 0.0) const;

    /**
     * First @p count queries re-timed under a time-varying rate:
     * mean_qps modulated by @p profile (a non-homogeneous Poisson
     * process, by inversion of the profile's cumulative integral).
     * The same drawn population — sizes and draw order untouched —
     * arrives denser at the peak and sparser at the trough, which is
     * what the elastic cluster tier serves over a simulated day. A
     * flat profile (peak_to_trough 1.0) is **bit-identical** to
     * materialize(mean_qps, count). Deterministic: a pure function of
     * the drawn template and the arguments.
     *
     * The inversion is a serial chain (Newton from the previous
     * arrival), run on the shared pool in chunks of kDiurnalChunk
     * queries: each later chunk starts from the root solved for its
     * previous query, and a serial pass then re-runs each chunk from
     * the true previous arrival until the two runs agree bit for bit
     * (usually within a query or two). The result is the serial
     * chain's, bit for bit, at every thread count. Fatal unless
     * @p mean_qps is positive.
     */
    QueryTrace materializeDiurnal(double mean_qps,
                                  const DiurnalProfile& profile,
                                  size_t count) const;

    /** Queries per task of materializeDiurnal (not a tuning knob: the
     *  output does not depend on it). */
    static constexpr size_t kDiurnalChunk = 8192;

    /** Queries drawn so far. */
    size_t size() const { return unitGaps.size(); }

    const LoadSpec& spec() const { return spec_; }

  private:
    LoadSpec spec_;
    ArrivalProcess arrivals;
    QuerySizeDistribution sizeDist;
    std::vector<double> unitGaps;   ///< inter-arrival gaps at rate 1.0
    std::vector<uint32_t> sizes;
};

/**
 * A query stream at the spec's rate: a cursor over one TraceTemplate.
 * Each generate() draws the next queries and re-times them, its clock
 * continuing from the last query handed out, so consecutive calls
 * return exactly what one TraceTemplate::materialize of their total
 * count at spec().qps returns.
 */
class QueryStream
{
  public:
    /** Fatal unless @p spec's rate is positive. */
    explicit QueryStream(const LoadSpec& spec);

    /** Generate the next @p count queries of the trace. */
    QueryTrace generate(size_t count);

    const LoadSpec& spec() const { return population.spec(); }

  private:
    TraceTemplate population;  ///< exactly the queries handed out
    double clock = 0.0;        ///< the last one's arrival
};

/**
 * Per-model substream seed of a mixed-model trace. Model 0 keeps the
 * base seed verbatim — its stream IS the historical single-model
 * stream — and model k > 0 derives an independent splitmix64
 * substream, so adding a model to a mix never perturbs another
 * model's draws.
 */
uint64_t modelSubstreamSeed(uint64_t base_seed, uint32_t model);

/**
 * Largest-remainder split of @p count queries over @p fractions:
 * each model gets floor(f_k * count), and the leftover queries go to
 * the largest fractional parts (ties to the lowest index). Exact:
 * the parts always sum to @p count. A single fraction of 1.0 yields
 * {count}. Fatal, naming the bad value, unless the fractions are
 * non-empty, non-negative and sum to 1 (±1e-9).
 */
std::vector<size_t> splitCountByFraction(
    const std::vector<double>& fractions, size_t count);

/**
 * The mixed-model form of TraceTemplate: one independent per-model
 * template (model k's seeds derived via modelSubstreamSeed, so model
 * 0's stream is bit-identical to the single-model TraceTemplate on
 * the same LoadSpec), merged at materialize time by arrival. Each
 * model k runs at rate fraction_k * qps; counts split by largest
 * remainder; ids are strided per model (kMixedQueryIdStride) so a
 * model's id sequence never shifts when the mix changes.
 *
 * Degeneration contract: a 1-model mix at fraction 1.0 materializes
 * **bit-identical** to TraceTemplate::materialize — same gaps, sizes,
 * ids — which the differential suite pins.
 *
 * Thread-safety: like TraceTemplate — ensure() single-threaded,
 * materialize() const and concurrent-safe afterwards.
 */
class MixedTraceTemplate
{
  public:
    /** @p fractions must be non-negative and sum to 1 (±1e-9), and
     *  number at most kMaxMixModels. */
    MixedTraceTemplate(const LoadSpec& base,
                       const std::vector<double>& fractions);

    /** Draw through @p count total queries (prefix-stable per model:
     *  growing the total never redraws any model's stream). The
     *  models draw as parallel tasks on the shared pool. */
    void ensure(size_t count);

    /**
     * First @p count queries (across all models) re-timed at total
     * rate @p qps, merged by arrival time (ties to the lower model
     * index). Requires ensure(count). Fatal unless @p qps is positive.
     */
    QueryTrace materialize(double qps, size_t count) const;

    /** Model k's share of a @p total -query trace. */
    size_t countOfModel(uint32_t model, size_t total) const;

    size_t numModels() const { return fractions_.size(); }

    /** Model k's underlying single-model template. */
    const TraceTemplate& templateOf(uint32_t model) const
    {
        return perModel[model];
    }

  private:
    std::vector<double> fractions_;
    std::vector<TraceTemplate> perModel;
};

/**
 * Assign each query of @p trace a priority class in [0, classes) by
 * hashing (query id, seed) — stateless and order-free, so the same
 * trace re-timed at another rate keeps every query's class, and a
 * re-presented (retried) query keeps its class by construction.
 * Classes land near-uniformly; 0 is the most important
 * (cluster/admission.hh sheds and degrades higher values first).
 */
void assignPriorityClasses(QueryTrace& trace, uint32_t classes,
                           uint64_t seed);

/**
 * Fatal unless @p classes is a usable priority-class count: 1 through
 * kMaxPriorityClasses, so every class fits Query::priorityClass.
 */
void validatePriorityClassCount(uint64_t classes);

/** Client backoff before the first retry of a dropped query, in
 *  seconds. */
constexpr double kRetryBackoffSeconds = 0.05;

/** Growth of the client backoff per further attempt. */
constexpr double kRetryBackoffFactor = 2.0;

/** Widest stretch of a retry delay: its jitter factor lies in
 *  [1, 1 + kRetryJitterFraction). */
constexpr double kRetryJitterFraction = 0.5;

/**
 * The client-side re-timer of a dropped query: how long a client
 * waits before re-presenting attempt @p attempt (0-based count of
 * drops so far). The delay is the larger of the router's Retry-After
 * hint and the exponential backoff
 * kRetryBackoffSeconds * kRetryBackoffFactor^attempt, stretched by a
 * deterministic jitter factor in [1, 1 + kRetryJitterFraction) drawn
 * by hashing (query id, attempt) — no RNG state, so a retry schedule
 * is a pure function of its inputs and bitwise thread-invariant,
 * while still decorrelating the retry times of queries dropped in
 * the same burst (the thundering-herd the jitter exists to break).
 */
double retryDelaySeconds(double retry_after_hint, uint64_t query_id,
                         uint32_t attempt);

} // namespace deeprecsys

#endif // DRS_LOADGEN_QUERY_STREAM_HH
