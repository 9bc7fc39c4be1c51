#include "engine.hh"

#include <algorithm>
#include <chrono>

#include "base/logging.hh"

namespace deeprecsys {

ServingEngine::ServingEngine(const RecModel& model, const EngineConfig& config)
    : model(model), cfg(config)
{
    if (cfg.numWorkers < 1)
        drs_fatal("engine needs at least one worker");
    if (cfg.perRequestBatch < 1)
        drs_fatal("batch must be >= 1");
    workerState.resize(cfg.numWorkers);
    workers.reserve(cfg.numWorkers);
    for (size_t w = 0; w < cfg.numWorkers; w++)
        workers.emplace_back([this, w] { workerLoop(w); });
}

ServingEngine::~ServingEngine()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping = true;
    }
    cv.notify_all();
    for (auto& t : workers)
        t.join();
}

void
ServingEngine::submitQuery(size_t query_idx, uint32_t size,
                           std::chrono::steady_clock::time_point start)
{
    auto& book = books[query_idx];
    const uint32_t batch = static_cast<uint32_t>(
        std::min<size_t>(cfg.perRequestBatch, size));
    book->start = start;
    book->requestsLeft.store(batch > 0 ? (size + batch - 1) / batch : 0,
                             std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (uint32_t remaining = size; remaining > 0;) {
            const uint32_t take = std::min(remaining, batch);
            queue.push_back({query_idx, take});
            remaining -= take;
        }
    }
    cv.notify_all();
}

void
ServingEngine::workerLoop(size_t worker_idx)
{
    Rng rng(cfg.inputSeed + worker_idx * 0x9e37ULL);
    // Sized by beginServe before any request of a trace is queued.
    WorkerState& state = workerState[worker_idx];
    while (true) {
        Request req{};
        {
            std::unique_lock<std::mutex> lock(mtx);
            cv.wait(lock, [this] { return stopping || !queue.empty(); });
            if (stopping && queue.empty())
                break;
            req = queue.front();
            queue.pop_front();
        }

        // Synthesize the input batch (stands in for deserialization)
        // and run the real forward pass.
        OperatorStats local;
        model.makeBatch(req.batch, rng, state.batch);
        model.forward(state.batch, state.scratch, &local);
        {
            std::lock_guard<std::mutex> lock(statsMtx);
            opStats.merge(local);
        }
        requestsDone.fetch_add(1, std::memory_order_relaxed);

        auto& book = books[req.queryIdx];
        if (book->requestsLeft.fetch_sub(1, std::memory_order_acq_rel)
                == 1) {
            const auto end = std::chrono::steady_clock::now();
            const double latency =
                std::chrono::duration<double>(end - book->start).count();
            {
                std::lock_guard<std::mutex> lock(statsMtx);
                latencies.add(latency);
            }
            queriesDone.fetch_add(1, std::memory_order_release);
        }
    }
}

void
ServingEngine::beginServe(const QueryTrace& trace)
{
    {
        std::lock_guard<std::mutex> lock(statsMtx);
        latencies.clear();
        latencies.reserve(trace.size());
        opStats.clear();
    }
    queriesDone.store(0);
    requestsDone.store(0);
    books.clear();
    books.reserve(trace.size());
    for (size_t i = 0; i < trace.size(); i++)
        books.push_back(std::make_unique<QueryBook>());

    // The workers are idle until submitQuery releases a request, and
    // the queue's mutex orders these writes before their reads.
    uint32_t largest = 0;
    for (const Query& q : trace)
        largest = std::max(largest, q.size);
    const size_t batch = std::min<size_t>(cfg.perRequestBatch, largest);
    if (batch > 0) {
        for (WorkerState& state : workerState)
            model.reserve(batch, state.batch, state.scratch);
    }
}

EngineResult
ServingEngine::finishServe(const QueryTrace& trace,
                           std::chrono::steady_clock::time_point start)
{
    while (queriesDone.load(std::memory_order_acquire) < trace.size())
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    const auto end = std::chrono::steady_clock::now();

    EngineResult result;
    {
        std::lock_guard<std::mutex> lock(statsMtx);
        result.queryLatencySeconds = latencies;
        result.operatorBreakdown = opStats;
    }
    result.wallSeconds = std::chrono::duration<double>(end - start).count();
    result.numQueries = trace.size();
    result.numRequests = requestsDone.load();
    return result;
}

EngineResult
ServingEngine::serveAll(const QueryTrace& trace)
{
    beginServe(trace);
    const auto wall_start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < trace.size(); i++)
        submitQuery(i, trace[i].size, std::chrono::steady_clock::now());
    return finishServe(trace, wall_start);
}

EngineResult
ServingEngine::serveOpenLoop(const QueryTrace& trace, double time_scale)
{
    drs_assert(time_scale > 0.0, "time scale must be positive");
    beginServe(trace);
    const auto wall_start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < trace.size(); i++) {
        const auto release = wall_start + std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(
                    trace[i].arrivalSeconds * time_scale));
        // Latency counts from the due time, so a late release (the
        // generator falling behind its schedule) is charged to the
        // query, as an open-loop client would see it.
        std::this_thread::sleep_until(release);
        submitQuery(i, trace[i].size, release);
    }
    return finishServe(trace, wall_start);
}

} // namespace deeprecsys
