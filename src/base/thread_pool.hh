/**
 * @file
 * Fixed-size thread pool — the parallel runtime under the repo's
 * embarrassingly parallel layers: the bench sweeps (`bench::sweepMap`),
 * any caller that maps a function over independent runs, and the
 * set-up RNG streams (embedding tables, trace templates) split into
 * tasks by Rng::discard.
 *
 * Design constraints, in priority order:
 *
 *  1. **Determinism.** parallelMap returns results in index order,
 *     never completion order. Every parallel layer built on it is
 *     therefore bit-identical to its serial execution at any thread
 *     count (the contract tests/test_parallel_diff.cc enforces).
 *  2. **Deadlock freedom under nesting.** parallelFor queues plain
 *     helper jobs that drain one shared index counter, and the caller
 *     drains the same counter. The caller then waits only for indices
 *     some thread has already claimed and is running, never for a
 *     queued job, so a parallelFor body may itself call parallelFor.
 *
 * Thread count comes from DRS_THREADS (unset or 0 means hardware
 * concurrency; 1 means fully serial: no worker threads are created and
 * all execution is inline on the calling thread).
 *
 * Where parallelism must NOT live: inside one simulation run, or
 * inside one search. A discrete-event simulation is a serial
 * dependence chain, and a search's next candidate depends on the last
 * one's verdict; the pool parallelizes across *independent runs* (see
 * sim/rate_search.hh) and, before a run, across the independent
 * stretches of its set-up RNG streams. A stream that takes a fixed
 * number of draws per element starts each task exactly where the
 * serial loop would reach it (Rng::discard), so set-up values are
 * bit-identical at every thread count too.
 */

#ifndef DRS_BASE_THREAD_POOL_HH
#define DRS_BASE_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace deeprecsys {

/**
 * Fixed pool of worker threads fed from one FIFO job queue. With
 * thread count 1 the pool spawns no workers at all and every loop runs
 * inline on the calling thread — the fully serial path.
 */
class ThreadPool
{
  public:
    /** @param threads executor count; 0 picks defaultThreadCount(). */
    explicit ThreadPool(size_t threads = 0);

    /** Runs the jobs still queued (they find their loops drained),
     *  then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /**
     * Executors available to parallel work, the calling thread
     * included (so 1 means fully serial).
     */
    size_t threadCount() const { return workers.size() + 1; }

    /**
     * DRS_THREADS when it is a decimal from 0 to 1024 (0 means the
     * hardware count), else — with a warning naming the reason — the
     * hardware concurrency (minimum 1).
     */
    static size_t defaultThreadCount();

    /**
     * The process-wide pool every parallel layer shares, sized from
     * DRS_THREADS at first use. It is never destroyed, so no exit
     * path joins its workers (a forked child has none to join).
     */
    static ThreadPool& shared();

    /**
     * Resize the shared pool (tests and perf_engine compare thread
     * counts in-process). Must only be called while no parallel work
     * is in flight.
     */
    static void setSharedThreads(size_t threads);

    /**
     * Run fn(0..n-1) to completion, the calling thread participating.
     * Iterations are independent; exceptions re-throw (first thrown in
     * index order wins) after all claimed iterations finished.
     */
    void parallelFor(size_t n, const std::function<void(size_t)>& fn);

    /**
     * Map fn over [0, n) into a vector **in index order** — results
     * never depend on completion order, which is what keeps parallel
     * sweeps printable and diffable against their serial runs.
     */
    template <typename Fn,
              typename R = std::invoke_result_t<Fn&, size_t>>
    std::vector<R>
    parallelMap(size_t n, Fn fn)
    {
        std::vector<R> out(n);
        parallelFor(n, [&](size_t i) { out[i] = fn(i); });
        return out;
    }

  private:
    void workerLoop();

    std::vector<std::thread> workers;
    std::mutex queueMu;
    std::condition_variable queueCv;
    std::deque<std::function<void()>> queue;
    bool stopping = false;
};

} // namespace deeprecsys

#endif // DRS_BASE_THREAD_POOL_HH
