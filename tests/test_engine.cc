/**
 * @file
 * Tests for the real-execution serving engine.
 */

#include <gtest/gtest.h>

#include "serving/engine.hh"

namespace deeprecsys {
namespace {

RecModel
tinyModel(ModelId id = ModelId::Ncf)
{
    return RecModel(modelConfig(id), /*seed=*/21, ModelScale::tiny());
}

QueryTrace
trace(std::initializer_list<uint32_t> sizes)
{
    QueryTrace t;
    uint64_t id = 0;
    double at = 0.0;
    for (uint32_t s : sizes) {
        t.push_back({id++, at, s});
        at += 0.001;
    }
    return t;
}

TEST(ServingEngine, ServesAllQueries)
{
    const RecModel model = tinyModel();
    EngineConfig cfg;
    cfg.numWorkers = 2;
    cfg.perRequestBatch = 16;
    ServingEngine engine(model, cfg);
    const EngineResult r = engine.serveAll(trace({10, 20, 30, 5}));
    EXPECT_EQ(r.numQueries, 4u);
    EXPECT_EQ(r.queryLatencySeconds.count(), 4u);
}

TEST(ServingEngine, RequestCountMatchesSplit)
{
    const RecModel model = tinyModel();
    EngineConfig cfg;
    cfg.numWorkers = 1;
    cfg.perRequestBatch = 16;
    ServingEngine engine(model, cfg);
    const EngineResult r = engine.serveAll(trace({16, 17, 31, 33}));
    // 1 + 2 + 2 + 3 requests.
    EXPECT_EQ(r.numRequests, 8u);
}

TEST(ServingEngine, LatenciesArePositive)
{
    const RecModel model = tinyModel();
    EngineConfig cfg;
    cfg.numWorkers = 2;
    ServingEngine engine(model, cfg);
    const EngineResult r = engine.serveAll(trace({8, 8, 8}));
    EXPECT_GT(r.queryLatencySeconds.percentile(0), 0.0);
    EXPECT_GT(r.wallSeconds, 0.0);
    EXPECT_GT(r.achievedQps(), 0.0);
}

TEST(ServingEngine, OperatorBreakdownPopulated)
{
    const RecModel model = tinyModel(ModelId::DlrmRmc1);
    EngineConfig cfg;
    cfg.numWorkers = 1;
    cfg.perRequestBatch = 32;
    ServingEngine engine(model, cfg);
    const EngineResult r = engine.serveAll(trace({64, 64}));
    EXPECT_GT(r.operatorBreakdown.total(), 0.0);
    EXPECT_GT(r.operatorBreakdown.seconds(OpClass::Fc), 0.0);
    EXPECT_GT(r.operatorBreakdown.seconds(OpClass::Embedding), 0.0);
}

TEST(ServingEngine, BackToBackServesReset)
{
    const RecModel model = tinyModel();
    EngineConfig cfg;
    cfg.numWorkers = 2;
    ServingEngine engine(model, cfg);
    const EngineResult a = engine.serveAll(trace({4, 4}));
    const EngineResult b = engine.serveAll(trace({4, 4, 4}));
    EXPECT_EQ(a.numQueries, 2u);
    EXPECT_EQ(b.numQueries, 3u);
    EXPECT_EQ(b.queryLatencySeconds.count(), 3u);
}

TEST(ServingEngine, OpenLoopHonoursTraceOrder)
{
    const RecModel model = tinyModel();
    EngineConfig cfg;
    cfg.numWorkers = 2;
    ServingEngine engine(model, cfg);
    QueryTrace t = trace({6, 6, 6, 6});
    const EngineResult r = engine.serveOpenLoop(t, /*time_scale=*/0.1);
    EXPECT_EQ(r.numQueries, 4u);
}

TEST(ServingEngine, OpenLoopLatencyCountsFromTheDueTime)
{
    // A query due 50 ms before the run starts is released late by
    // 50 ms; an open-loop client waited that long, so it counts.
    const RecModel model = tinyModel();
    EngineConfig cfg;
    cfg.numWorkers = 1;
    ServingEngine engine(model, cfg);
    const QueryTrace t = {{.id = 0, .arrivalSeconds = -0.05, .size = 4}};
    const EngineResult r = engine.serveOpenLoop(t);
    ASSERT_EQ(r.queryLatencySeconds.count(), 1u);
    EXPECT_GE(r.queryLatencySeconds.percentile(0), 0.05);
}

TEST(ServingEngine, SequenceModelServes)
{
    const RecModel model = tinyModel(ModelId::Dien);
    EngineConfig cfg;
    cfg.numWorkers = 2;
    cfg.perRequestBatch = 8;
    ServingEngine engine(model, cfg);
    const EngineResult r = engine.serveAll(trace({12, 4}));
    EXPECT_EQ(r.numQueries, 2u);
    EXPECT_GT(r.operatorBreakdown.seconds(OpClass::Recurrent), 0.0);
}

// A bad engine config is a user error: it exits with status 1
// (drs_fatal), it does not abort like a broken invariant.

TEST(ServingEngineDeath, ZeroWorkersIsAConfigError)
{
    const RecModel model = tinyModel();
    EngineConfig cfg;
    cfg.numWorkers = 0;
    EXPECT_EXIT((void)ServingEngine(model, cfg), ::testing::ExitedWithCode(1),
                "engine needs at least one worker");
}

TEST(ServingEngineDeath, ZeroBatchIsAConfigError)
{
    const RecModel model = tinyModel();
    EngineConfig cfg;
    cfg.perRequestBatch = 0;
    EXPECT_EXIT((void)ServingEngine(model, cfg), ::testing::ExitedWithCode(1),
                "batch must be >= 1");
}

} // namespace
} // namespace deeprecsys
