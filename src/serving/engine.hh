/**
 * @file
 * Real-execution inference serving engine.
 *
 * This is the functional counterpart of the discrete-event simulator:
 * a pool of worker threads pulls batched requests from a queue and
 * runs the actual RecModel forward pass. It validates end-to-end
 * behaviour (query splitting, batching, tail-latency measurement) on
 * real kernels and provides the measured operator breakdowns.
 */

#ifndef DRS_SERVING_ENGINE_HH
#define DRS_SERVING_ENGINE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "base/stats.hh"
#include "loadgen/query.hh"
#include "models/rec_model.hh"

namespace deeprecsys {

/** Engine configuration. */
struct EngineConfig
{
    size_t numWorkers = 2;          ///< worker threads (cores)
    size_t perRequestBatch = 64;    ///< query split granularity
    uint64_t inputSeed = 99;        ///< batch synthesis seed
};

/** Latency and throughput measured over a served query stream. */
struct EngineResult
{
    SampleStats queryLatencySeconds;
    OperatorStats operatorBreakdown;
    double wallSeconds = 0;
    uint64_t numQueries = 0;
    uint64_t numRequests = 0;

    double p95Ms() const { return queryLatencySeconds.percentile(95) * 1e3; }
    double meanMs() const { return queryLatencySeconds.mean() * 1e3; }
    double
    achievedQps() const
    {
        return wallSeconds > 0
            ? static_cast<double>(numQueries) / wallSeconds : 0.0;
    }
};

/**
 * Multi-threaded serving engine bound to one model.
 *
 * Queries are submitted as (size) work items; the engine splits each
 * into requests of at most perRequestBatch samples, synthesizes the
 * input batch (standing in for request deserialization), executes the
 * model, and records the query latency when its last request ends.
 * Each worker owns one input batch and one set of forward buffers,
 * refilled per request. The serving thread sizes them, and the latency
 * book, before it releases a trace's first request, so the workers
 * never allocate.
 */
class ServingEngine
{
  public:
    ServingEngine(const RecModel& model, const EngineConfig& config);
    ~ServingEngine();

    ServingEngine(const ServingEngine&) = delete;
    ServingEngine& operator=(const ServingEngine&) = delete;

    /**
     * Serve a closed-loop trace: all queries are submitted at once
     * and the call returns when every query has completed. Arrival
     * times in the trace are ignored (closed-loop mode).
     */
    EngineResult serveAll(const QueryTrace& trace);

    /**
     * Serve an open-loop trace: queries are released according to
     * their arrival timestamps (scaled by @p time_scale; smaller
     * scales compress the trace for faster experiments). Each query's
     * latency counts from its due time, so a release the generator
     * makes late is counted in it.
     */
    EngineResult serveOpenLoop(const QueryTrace& trace,
                               double time_scale = 1.0);

  private:
    struct Request
    {
        size_t queryIdx;
        uint32_t batch;
    };

    struct QueryBook
    {
        std::chrono::steady_clock::time_point start;
        std::atomic<uint32_t> requestsLeft{0};
    };

    /** What one worker writes per request. */
    struct WorkerState
    {
        RecBatch batch;
        ForwardScratch scratch;
    };

    void workerLoop(size_t worker_idx);
    /** Queue query @p query_idx; its latency counts from @p start. */
    void submitQuery(size_t query_idx, uint32_t size,
                     std::chrono::steady_clock::time_point start);

    /**
     * Reset the books for @p trace and, on the calling thread, size
     * the worker state for its largest request and the latency book
     * for its queries.
     */
    void beginServe(const QueryTrace& trace);

    /** Wait for @p trace to complete and gather its result. */
    EngineResult finishServe(const QueryTrace& trace,
                             std::chrono::steady_clock::time_point start);

    const RecModel& model;
    EngineConfig cfg;

    std::vector<WorkerState> workerState;   ///< one per worker
    std::vector<std::thread> workers;
    std::mutex mtx;
    std::condition_variable cv;
    std::deque<Request> queue;
    bool stopping = false;

    std::vector<std::unique_ptr<QueryBook>> books;
    std::mutex statsMtx;
    SampleStats latencies;
    OperatorStats opStats;
    std::atomic<uint64_t> requestsDone{0};
    std::atomic<uint64_t> queriesDone{0};
};

} // namespace deeprecsys

#endif // DRS_SERVING_ENGINE_HH
