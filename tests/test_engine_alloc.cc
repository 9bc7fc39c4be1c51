/**
 * @file
 * The serving engine's workers never allocate: the serving thread
 * sizes each worker's input batch and forward buffers, and the latency
 * book, before it releases a trace's first request.
 *
 * A counting replacement of the global operator new records the
 * allocations made on threads other than the test's own. It replaces
 * the operator for the whole process, so this file builds its own
 * test binary.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include "serving/engine.hh"

namespace {

std::atomic<bool> counting{false};
std::atomic<uint64_t> foreignAllocs{0};
thread_local bool onTestThread = false;

void*
countedAlloc(std::size_t size, std::size_t align)
{
    if (counting.load(std::memory_order_relaxed) && !onTestThread)
        foreignAllocs.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void* p = align > alignof(std::max_align_t)
        ? std::aligned_alloc(align, (size + align - 1) / align * align)
        : std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void* operator new(std::size_t size) { return countedAlloc(size, 0); }
void* operator new[](std::size_t size) { return countedAlloc(size, 0); }
void*
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}
void*
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace deeprecsys {
namespace {

/** Counts other threads' allocations for the scope's lifetime. */
class ForeignAllocCount
{
  public:
    ForeignAllocCount()
    {
        onTestThread = true;
        foreignAllocs.store(0);
        counting.store(true);
    }
    ~ForeignAllocCount() { counting.store(false); }

    uint64_t value() const { return foreignAllocs.load(); }
};

QueryTrace
trace(std::initializer_list<uint32_t> sizes)
{
    QueryTrace t;
    uint64_t id = 0;
    double at = 0.0;
    for (uint32_t s : sizes) {
        t.push_back({id++, at, s});
        at += 0.0005;
    }
    return t;
}

TEST(EngineAlloc, CountsOtherThreadsOnly)
{
    // The harness itself: an allocation on another thread counts, one
    // on the test's thread does not.
    ForeignAllocCount count;
    delete new int(1);
    EXPECT_EQ(count.value(), 0u);
    std::thread([] { delete new int(2); }).join();
    EXPECT_EQ(count.value(), 1u);
}

class EngineAllocZoo : public ::testing::TestWithParam<ModelId>
{
};

TEST_P(EngineAllocZoo, WorkersAllocateNothing)
{
    const RecModel model(modelConfig(GetParam()), 21, ModelScale::tiny());
    EngineConfig cfg;
    cfg.numWorkers = 2;
    cfg.perRequestBatch = 32;
    ServingEngine engine(model, cfg);

    // From the first call on: a closed-loop trace, an open-loop one
    // whose requests outgrow the first trace's (the serving thread
    // grows the workers' buffers), and smaller ones again.
    ForeignAllocCount count;
    const EngineResult first = engine.serveAll(trace({5, 12, 1, 20, 7}));
    const EngineResult grown =
        engine.serveOpenLoop(trace({3, 70, 33, 9, 64, 2}));
    const EngineResult shrunk = engine.serveAll(trace({1, 4, 2}));
    const uint64_t foreign = count.value();

    EXPECT_EQ(first.numRequests, 5u);
    EXPECT_EQ(grown.numRequests, 1u + 3u + 2u + 1u + 2u + 1u);
    EXPECT_EQ(shrunk.numQueries, 3u);
    EXPECT_EQ(foreign, 0u) << "allocations on worker threads";
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, EngineAllocZoo, ::testing::ValuesIn(allModelIds()),
    [](const ::testing::TestParamInfo<ModelId>& info) {
        std::string name = modelName(info.param);
        for (char& c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace deeprecsys
