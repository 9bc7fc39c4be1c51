#include "thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "base/logging.hh"

namespace deeprecsys {

namespace {

/** Largest DRS_THREADS value accepted. */
constexpr size_t kMaxThreads = 1024;

} // namespace

ThreadPool::ThreadPool(size_t threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    workers.reserve(threads - 1);
    for (size_t t = 0; t + 1 < threads; t++)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(queueMu);
        stopping = true;
    }
    queueCv.notify_all();
    for (std::thread& worker : workers)
        worker.join();
}

size_t
ThreadPool::defaultThreadCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    const size_t hardware = hw >= 1 ? hw : 1;
    const char* env = std::getenv("DRS_THREADS");
    if (env == nullptr || env[0] == '\0')
        return hardware;
    size_t parsed = 0;
    for (const char* c = env; *c != '\0'; c++) {
        if (*c < '0' || *c > '9') {
            drs_warn("ignoring DRS_THREADS=", env,
                     ": not a decimal number");
            return hardware;
        }
        // Saturate past the limit so long digit strings cannot wrap.
        parsed = std::min(parsed * 10 + static_cast<size_t>(*c - '0'),
                          kMaxThreads + 1);
    }
    if (parsed > kMaxThreads) {
        drs_warn("ignoring DRS_THREADS=", env, ": above the limit of ",
                 kMaxThreads);
        return hardware;
    }
    return parsed == 0 ? hardware : parsed;
}

namespace {

std::mutex sharedPoolMu;
std::unique_ptr<ThreadPool> sharedPool;

} // namespace

ThreadPool&
ThreadPool::shared()
{
    std::lock_guard<std::mutex> lock(sharedPoolMu);
    if (!sharedPool)
        sharedPool = std::make_unique<ThreadPool>();
    return *sharedPool;
}

void
ThreadPool::setSharedThreads(size_t threads)
{
    std::lock_guard<std::mutex> lock(sharedPoolMu);
    sharedPool = std::make_unique<ThreadPool>(
        threads == 0 ? defaultThreadCount() : threads);
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(queueMu);
            queueCv.wait(lock,
                         [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return;   // stopping with nothing left to drain
            job = std::move(queue.front());
            queue.pop_front();
        }
        job();
    }
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)>& fn)
{
    if (n == 0)
        return;
    if (workers.empty() || n == 1) {
        // Serial path: plain loop, first exception propagates as-is.
        for (size_t i = 0; i < n; i++)
            fn(i);
        return;
    }

    // One loop's shared state. Every participant (queued helper jobs,
    // plus this thread) claims the next index from one counter, so
    // scheduling order cannot change which indices run — only who
    // runs them. A helper that starts after the counter ran out reads
    // nothing but this shared-owned state, never fn, so fn may go out
    // of scope as soon as every claimed index is done.
    struct Loop
    {
        std::atomic<size_t> next{0};
        size_t total = 0;
        const std::function<void(size_t)>* fn = nullptr;
        std::mutex mu;
        std::condition_variable finished;
        size_t done = 0;
        std::exception_ptr firstError;
        size_t firstErrorIndex = 0;
    };
    auto loop = std::make_shared<Loop>();
    loop->total = n;
    loop->fn = &fn;
    loop->firstErrorIndex = n;

    auto drain = [](Loop& l) {
        for (;;) {
            const size_t i = l.next.fetch_add(1);
            if (i >= l.total)
                return;
            std::exception_ptr error;
            try {
                (*l.fn)(i);
            } catch (...) {
                error = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(l.mu);
            if (error && i < l.firstErrorIndex) {
                l.firstError = error;
                l.firstErrorIndex = i;
            }
            if (++l.done == l.total)
                l.finished.notify_all();
        }
    };

    const size_t helpers = std::min(workers.size(), n - 1);
    {
        std::lock_guard<std::mutex> lock(queueMu);
        for (size_t h = 0; h < helpers; h++)
            queue.emplace_back([loop, drain] { drain(*loop); });
    }
    queueCv.notify_all();
    drain(*loop);

    // Every index is claimed; wait out the ones other threads are
    // still running (never a queued job, so nesting cannot deadlock).
    std::unique_lock<std::mutex> lock(loop->mu);
    loop->finished.wait(lock, [&] { return loop->done == loop->total; });
    if (loop->firstError)
        std::rethrow_exception(loop->firstError);
}

} // namespace deeprecsys
