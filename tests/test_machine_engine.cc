/**
 * @file
 * Unit tests for the shared per-machine service engine: admission
 * splitting, offload decisions, FIFO dispatch, utilization
 * integrals, the deterministic event queue, and the driver helpers —
 * the mechanics both simulators inherit.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "bench/bench_common.hh"
#include "sim/machine_engine.hh"

namespace deeprecsys {
namespace {

SimConfig
engineConfig(size_t batch = 64, bool gpu = false, uint32_t threshold = 1)
{
    SimConfig cfg = bench::cpuMachine(batch);
    cfg.bindings[0].policy.gpuEnabled = gpu;
    cfg.bindings[0].policy.gpuQueryThreshold = threshold;
    if (gpu)
        cfg.bindings[0].gpu.emplace(ModelProfile::forModel(ModelId::DlrmRmc1),
                                    GpuPlatform::gtx1080Ti());
    return cfg;
}

TEST(MachineEngine, AdmissionSplitsIntoCeilRequests)
{
    const SimConfig cfg = engineConfig(64);
    MachineEngine engine(&cfg);
    std::vector<EngineEvent> out;
    engine.admit({0, 100}, 0.0, out);
    engine.admit({1, 64}, 0.0, out);
    engine.admit({2, 65}, 0.0, out);
    // 100 -> 2 requests, 64 -> 1, 65 -> 2; all dispatch on idle cores.
    EXPECT_EQ(engine.requestsDispatched(), 5u);
    EXPECT_EQ(out.size(), 5u);
}

TEST(MachineEngine, QueuedWorkBeyondCoreCount)
{
    const SimConfig cfg = engineConfig(1);
    MachineEngine engine(&cfg);
    const size_t cores = cfg.cores();
    std::vector<EngineEvent> out;
    const uint32_t samples = static_cast<uint32_t>(2 * cores);
    engine.admit({0, samples}, 0.0, out);
    // One request per sample: cores dispatch, the rest queue.
    EXPECT_EQ(engine.requestsDispatched(), cores);
    EXPECT_EQ(engine.queuedWork(), cores);
    EXPECT_EQ(engine.busyCores(), cores);
}

TEST(MachineEngine, CompletionDispatchesQueuedRequestFifo)
{
    const SimConfig cfg = engineConfig(1);
    MachineEngine engine(&cfg);
    const size_t cores = cfg.cores();
    std::vector<EngineEvent> out;
    engine.admit({0, static_cast<uint32_t>(cores + 1)},
                 0.0, out);
    ASSERT_EQ(out.size(), cores);
    const double t = out.front().time;
    std::vector<EngineEvent> next;
    const bool finished = engine.cpuRequestDone(out.front().slot, out.front().partIdx, t, next);
    EXPECT_FALSE(finished);    // other requests of the part remain
    ASSERT_EQ(next.size(), 1u);      // the queued request started
    EXPECT_EQ(engine.queuedWork(), 0u);
}

TEST(MachineEngine, PartFinishesOnLastRequest)
{
    const SimConfig cfg = engineConfig(50);
    MachineEngine engine(&cfg);
    std::vector<EngineEvent> out;
    engine.admit({7, 100}, 0.0, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].partIdx, 7u);    // driver id echoed alongside slot
    std::vector<EngineEvent> none;
    EXPECT_FALSE(engine.cpuRequestDone(out[0].slot, out[0].partIdx, out[0].time, none));
    EXPECT_TRUE(engine.cpuRequestDone(out[1].slot, out[1].partIdx, out[1].time, none));
    EXPECT_EQ(engine.partsInService(), 0u);
}

TEST(MachineEngine, OffloadRequiresWholeAndThreshold)
{
    const SimConfig cfg = engineConfig(64, true, 100);
    MachineEngine engine(&cfg);
    std::vector<EngineEvent> out;
    // Below threshold: CPU path.
    engine.admit({0, 99}, 0.0, out);
    EXPECT_TRUE(out.size() >= 1 &&
                out.back().kind == EngineEvent::Kind::CpuRequest);
    // At threshold and whole: offload.
    out.clear();
    engine.admit({1, 100}, 0.0, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out.back().kind, EngineEvent::Kind::GpuQuery);
    // Shard part above threshold: never offloaded.
    out.clear();
    engine.admit({2, 500, 0.5, PartKind::Embedding}, 0.0, out);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.back().kind, EngineEvent::Kind::CpuRequest);
}

TEST(MachineEngine, GpuServesOneAtATime)
{
    const SimConfig cfg = engineConfig(64, true, 1);
    MachineEngine engine(&cfg);
    std::vector<EngineEvent> out;
    engine.admit({0, 200}, 0.0, out);
    engine.admit({1, 200}, 0.0, out);
    ASSERT_EQ(out.size(), 1u);    // second query queues behind the first
    EXPECT_EQ(engine.queuedWork(), 1u);
    std::vector<EngineEvent> next;
    engine.gpuQueryDone(out[0].slot, out[0].partIdx, out[0].time, next);
    ASSERT_EQ(next.size(), 1u);   // and starts when the GPU frees
    EXPECT_EQ(next[0].partIdx, 1u);
    const double service = cfg.bindings[0].gpu->querySeconds(200);
    EXPECT_NEAR(next[0].time, out[0].time + service, 1e-12);
}

TEST(MachineEngine, GpuSampleAccounting)
{
    const SimConfig cfg = engineConfig(64, true, 150);
    MachineEngine engine(&cfg);
    std::vector<EngineEvent> out;
    engine.admit({0, 100}, 0.0, out);
    engine.admit({1, 300}, 0.0, out);
    EXPECT_DOUBLE_EQ(engine.totalSamples(), 400.0);
    EXPECT_DOUBLE_EQ(engine.gpuSamples(), 300.0);
}

TEST(MachineEngine, ShardPartsExcludedFromWholeSampleAccounting)
{
    const SimConfig cfg = engineConfig(64);
    MachineEngine engine(&cfg);
    std::vector<EngineEvent> out;
    engine.admit({0, 100}, 0.0, out);
    engine.admit({1, 100, 0.25, PartKind::Embedding}, 0.0, out);
    // Only the whole part counts toward query-sample totals: shard
    // parts of the same query must not double-count its samples.
    EXPECT_DOUBLE_EQ(engine.totalSamples(), 100.0);
}

TEST(MachineEngine, UtilizationIntegralsAdvanceLazily)
{
    const SimConfig cfg = engineConfig(256);
    MachineEngine engine(&cfg);
    std::vector<EngineEvent> out;
    engine.admit({0, 100}, 0.0, out);   // one request
    ASSERT_EQ(out.size(), 1u);
    // A read integrates up to its instant without moving the clock.
    EXPECT_DOUBLE_EQ(engine.busyCoreSecondsAt(0.5), 0.5);  // 1 core busy
    EXPECT_DOUBLE_EQ(engine.busyCoreSeconds(), 0.0);
    std::vector<EngineEvent> none;
    engine.cpuRequestDone(out[0].slot, out[0].partIdx, 0.5, none);
    EXPECT_DOUBLE_EQ(engine.busyCoreSeconds(), 0.5);
    EXPECT_DOUBLE_EQ(engine.busyCoreSecondsAt(2.0), 0.5);  // idle after

    // Reads between engine calls never enter the engine's sums: an
    // engine read after every call ends with the same bits as one
    // never read, on the core pool and on the accelerator.
    const SimConfig mixed = engineConfig(32, true, 200);
    auto drive = [](MachineEngine& e, bool read) {
        std::vector<EngineEvent> pending;
        e.admit({0, 100}, 0.1, pending);   // 4 requests
        e.admit({1, 300}, 0.1, pending);   // offloaded
        e.admit({2, 50}, 0.1, pending);    // 2 requests
        double last = 0.1;
        while (!pending.empty()) {
            const auto next = std::min_element(
                pending.begin(), pending.end(),
                [](const EngineEvent& a, const EngineEvent& b) {
                    return a.time < b.time;
                });
            const EngineEvent ev = *next;
            pending.erase(next);
            if (read) {
                EXPECT_GE(e.busyCoreSecondsAt((last + 2.0 * ev.time) / 3.0),
                          e.busyCoreSeconds());
            }
            last = ev.time;
            if (ev.kind == EngineEvent::Kind::CpuRequest)
                e.cpuRequestDone(ev.slot, ev.partIdx, ev.time, pending);
            else
                e.gpuQueryDone(ev.slot, ev.partIdx, ev.time, pending);
        }
        EXPECT_TRUE(e.idle());
    };
    MachineEngine unread(&mixed);
    MachineEngine read(&mixed);
    drive(unread, false);
    drive(read, true);
    EXPECT_GT(read.busyCoreSeconds(), 0.0);
    EXPECT_GT(read.gpuBusySeconds(), 0.0);
    EXPECT_EQ(read.busyCoreSeconds(), unread.busyCoreSeconds());
    EXPECT_EQ(read.gpuBusySeconds(), unread.gpuBusySeconds());
}

TEST(MachineEngine, ServiceTimePricedAtDispatchOccupancy)
{
    const SimConfig cfg = engineConfig(128);
    MachineEngine engine(&cfg);
    std::vector<EngineEvent> out;
    engine.admit({0, 128}, 0.0, out);
    ASSERT_EQ(out.size(), 1u);
    // A lone request is priced against one busy core — itself.
    EXPECT_DOUBLE_EQ(out[0].time, cfg.bindings[0].cpu.requestSeconds(128, 1));
}

TEST(MachineEngine, SlowdownScalesServiceTimes)
{
    SimConfig slow = engineConfig(128);
    slow.slowdown = 2.0;
    const SimConfig fast = engineConfig(128);
    MachineEngine a(&fast);
    MachineEngine b(&slow);
    std::vector<EngineEvent> oa, ob;
    a.admit({0, 128}, 0.0, oa);
    b.admit({0, 128}, 0.0, ob);
    EXPECT_NEAR(ob[0].time, 2.0 * oa[0].time, 1e-12);
}

TEST(MachineEngine, CrashLosesLiveWorkAndResetsTheProcess)
{
    const SimConfig cfg = engineConfig(1);
    MachineEngine engine(&cfg);
    const size_t cores = cfg.cores();
    std::vector<EngineEvent> out;
    // Saturate the cores and leave a second part queued behind them.
    engine.admit({5, static_cast<uint32_t>(2 * cores)},
                 0.0, out);
    engine.admit({9, 1}, 0.0, out);
    ASSERT_EQ(engine.partsInService(), 2u);
    ASSERT_GT(engine.queuedWork(), 0u);
    engine.setServiceFactor(4.0);
    EXPECT_EQ(engine.epoch(), 0u);

    std::vector<uint64_t> lost;
    engine.crash(0.25, lost);
    // A new incarnation: completions of the old one are stale.
    EXPECT_EQ(engine.epoch(), 1u);
    // Every live part reported once, in slot order: queued work dies
    // with the process just like in-flight work.
    ASSERT_EQ(lost.size(), 2u);
    EXPECT_EQ(lost[0], 5u);
    EXPECT_EQ(lost[1], 9u);
    // Fresh-process state: nothing queued, nothing running, health
    // restored...
    EXPECT_EQ(engine.queuedWork(), 0u);
    EXPECT_EQ(engine.busyCores(), 0u);
    EXPECT_EQ(engine.partsInService(), 0u);
    EXPECT_DOUBLE_EQ(engine.queuedCostSeconds(), 0.0);
    EXPECT_DOUBLE_EQ(engine.serviceFactor(), 1.0);
    // ...but the machine's busy-time integral survives the reboot.
    EXPECT_DOUBLE_EQ(engine.busyCoreSeconds(),
                     0.25 * static_cast<double>(cores));

    // The repaired incarnation serves normally.
    out.clear();
    engine.admit({11, 1}, 1.0, out);
    ASSERT_EQ(out.size(), 1u);
    std::vector<EngineEvent> none;
    EXPECT_TRUE(engine.cpuRequestDone(out[0].slot, out[0].partIdx,
                                      out[0].time, none));
}

TEST(MachineEngine, ServiceFactorScalesDispatchedTimesOnly)
{
    const SimConfig cfg = engineConfig(128);
    MachineEngine healthy(&cfg);
    MachineEngine gray(&cfg);
    gray.setServiceFactor(4.0);
    std::vector<EngineEvent> oh, og;
    healthy.admit({0, 128}, 0.0, oh);
    gray.admit({0, 128}, 0.0, og);
    ASSERT_EQ(oh.size(), 1u);
    ASSERT_EQ(og.size(), 1u);
    EXPECT_NEAR(og[0].time, 4.0 * oh[0].time, 1e-12);
    // The lie: the estimator-facing backlog price is identical — a
    // gray machine looks exactly as cheap as a healthy one.
    std::vector<EngineEvent> out;
    healthy.admit({1, 300}, 0.0, out);
    gray.admit({1, 300}, 0.0, out);
    EXPECT_DOUBLE_EQ(gray.queuedCostSeconds(),
                     healthy.queuedCostSeconds());
    // Health restores for future dispatches.
    gray.setServiceFactor(1.0);
    EXPECT_DOUBLE_EQ(gray.serviceFactor(), 1.0);
}

TEST(MachineEngineDeath, RejectsBadConfigs)
{
    SimConfig zero_batch = engineConfig();
    zero_batch.bindings[0].policy.perRequestBatch = 0;
    EXPECT_EXIT(MachineEngine::validate(zero_batch),
                ::testing::ExitedWithCode(1), "batch");
    SimConfig bad_slowdown = engineConfig();
    bad_slowdown.slowdown = 0.0;
    EXPECT_EXIT(MachineEngine::validate(bad_slowdown),
                ::testing::ExitedWithCode(1), "slowdown");
    SimConfig gpu_less = engineConfig();
    gpu_less.bindings[0].policy.gpuEnabled = true;
    EXPECT_EXIT(MachineEngine::validate(gpu_less),
                ::testing::ExitedWithCode(1), "GPU");
}

TEST(MachineEngineDeath, RejectsStaleAndUnknownSlots)
{
    const SimConfig cfg = engineConfig();
    MachineEngine engine(&cfg);
    std::vector<EngineEvent> out;
    engine.admit({0, 10}, 0.0, out);
    ASSERT_EQ(out.size(), 1u);
    std::vector<EngineEvent> none;
    // A slot the slab never allocated.
    EXPECT_DEATH(engine.cpuRequestDone(42, 0, 0.1, none), "unknown");
    // A freed (stale) slot: the part finished, its slot is recycled.
    EXPECT_TRUE(engine.cpuRequestDone(out[0].slot, out[0].partIdx, out[0].time, none));
    EXPECT_DEATH(engine.cpuRequestDone(out[0].slot, out[0].partIdx, out[0].time, none),
                 "core|unknown");
}

TEST(MachineEngine, SlotsRecycleThroughTheFreeList)
{
    const SimConfig cfg = engineConfig(64);
    MachineEngine engine(&cfg);
    std::vector<EngineEvent> out;
    engine.admit({100, 10}, 0.0, out);
    ASSERT_EQ(out.size(), 1u);
    const uint32_t first_slot = out[0].slot;
    std::vector<EngineEvent> none;
    EXPECT_TRUE(engine.cpuRequestDone(out[0].slot, out[0].partIdx, out[0].time, none));
    // The freed slot is reused for the next admission, and the new
    // part id is echoed — the slab never grows past peak concurrency.
    out.clear();
    engine.admit({200, 10}, 1.0, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].slot, first_slot);
    EXPECT_EQ(out[0].partIdx, 200u);
    EXPECT_EQ(engine.partsInService(), 1u);
}

TEST(EventQueueOrder, TiesBreakOnInsertionSequence)
{
    EventQueue q;
    q.push(1.0, SimEvent::Kind::CpuRequest, 0, 10);
    q.push(0.5, SimEvent::Kind::CpuRequest, 0, 20);
    q.push(1.0, SimEvent::Kind::GpuQuery, 1, 30);
    EXPECT_EQ(q.pop().partIdx, 20u);
    EXPECT_EQ(q.pop().partIdx, 10u);    // earlier insertion wins the tie
    EXPECT_EQ(q.pop().partIdx, 30u);
    EXPECT_TRUE(q.empty());
}

TEST(DriverHelpers, WarmupCountMatchesHistoricalTruncation)
{
    EXPECT_EQ(warmupCount(100), 5u);
    EXPECT_EQ(warmupCount(99), 4u);
    EXPECT_EQ(warmupCount(20), 1u);
    EXPECT_EQ(warmupCount(19), 0u);
    EXPECT_EQ(warmupCount(0), 0u);
}

TEST(DriverHelpers, TraceOfferedQpsFromStamps)
{
    QueryTrace trace;
    for (uint64_t i = 0; i <= 100; i++)
        trace.push_back({i, static_cast<double>(i) * 0.01, 1});
    EXPECT_NEAR(traceOfferedQps(trace), 100.0, 1e-9);
    EXPECT_DOUBLE_EQ(traceOfferedQps({}), 0.0);
    EXPECT_DOUBLE_EQ(traceOfferedQps({{0, 1.0, 1}}), 0.0);
}

TEST(DriverHelpers, MeasuredSpanAccounting)
{
    MeasuredSpan span;
    EXPECT_DOUBLE_EQ(span.seconds(), 0.0);
    EXPECT_DOUBLE_EQ(span.achievedQps(10), 0.0);
    span.onArrival(1.0);
    span.onArrival(2.0);    // later arrivals do not move the origin
    span.onCompletion(3.0);
    span.onCompletion(2.5); // earlier completions do not shrink it
    EXPECT_DOUBLE_EQ(span.seconds(), 2.0);
    EXPECT_DOUBLE_EQ(span.achievedQps(10), 5.0);
}

} // namespace
} // namespace deeprecsys
