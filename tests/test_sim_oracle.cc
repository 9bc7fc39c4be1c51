/**
 * @file
 * A sample-path oracle for the serving engine. With contention-free
 * pricing, ServingSimulator is a textbook FIFO multi-server queue: a
 * query splits into requests of at most perRequestBatch samples, each
 * request takes the earliest free core in arrival order, and an
 * offloaded query waits for the one accelerator. The recursion below
 * computes every latency of that queue from the trace and the cost
 * model alone, and the engine must reproduce it bit for bit.
 *
 * Where the engine departs from the textbook queue, by design:
 *  - A CPU request is priced at dispatch from the number of busy
 *    cores, this one included: the LLC-contention slopes and the
 *    chip's shared gather bandwidth both grow with it. The oracle
 *    turns both off (contentionFree), so a price depends on the batch
 *    alone; with them on, no fixed-service recursion applies.
 *  - Arrivals win ties: an arrival at the instant a core frees is
 *    admitted before that completion, so it queues and starts at the
 *    same instant. Its start time, and so every latency, is the same
 *    as the recursion's max(arrival, earliest free core).
 *
 * Both sides build each time from the same doubles in the same order
 * (start = max(arrival, free), finish = start + price, latency =
 * finish - arrival), so they agree exactly and no ulp bound is
 * needed. A Lindley form over inter-arrival gaps would round
 * differently.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "loadgen/query_stream.hh"
#include "sim/serving_sim.hh"

namespace deeprecsys {
namespace {

/**
 * @p model on @p platform with no contention: both LLC slopes are 0,
 * so contentionFactor is exactly 1, and the chip's gather bandwidth
 * covers every core's own cap at once, so the per-core cap always
 * binds. A request's price then depends on its batch only.
 */
CpuCostModel
contentionFree(ModelId model, const CpuPlatform& platform)
{
    CpuCostParams params;
    params.inclusiveContention = 0.0;
    params.exclusiveContention = 0.0;
    params.gatherChipFraction = 2.0 * params.gatherCoreBwGBs *
                                static_cast<double>(platform.cores) /
                                platform.dramBwGBs;
    return CpuCostModel(ModelProfile::forModel(model), platform, params);
}

/** One finished query of the recursion. */
struct Finish
{
    double time;
    double latency;
    bool waited;    ///< some request started after the arrival
};

/**
 * The FIFO c-server recursion over @p trace on @p cfg's machine.
 * Requests take cores in arrival order; each starts at the later of
 * its arrival and the earliest moment a core frees, and holds that
 * core for its price. A split query completes with its last request.
 * Offloaded queries queue in the same way for the one accelerator.
 */
std::vector<Finish>
fifoRecursion(const SimConfig& cfg, const QueryTrace& trace)
{
    const ModelService& only = cfg.bindings[0];
    std::vector<double> core_free(cfg.cores(), 0.0);
    double gpu_free = 0.0;
    std::vector<Finish> out;
    for (const Query& q : trace) {
        const double a = q.arrivalSeconds;
        double done = a;
        bool waited = false;
        if (only.policy.gpuEnabled && q.size >= only.policy.gpuQueryThreshold) {
            waited = gpu_free > a;
            gpu_free = std::max(a, gpu_free) + only.gpu->querySeconds(q.size);
            done = gpu_free;
        } else {
            for (uint32_t left = q.size; left > 0;) {
                const uint32_t take = static_cast<uint32_t>(
                    std::min<size_t>(left, only.policy.perRequestBatch));
                double& free =
                    *std::min_element(core_free.begin(), core_free.end());
                waited = waited || free > a;
                free = std::max(a, free) + only.cpu.requestSeconds(take, 1);
                done = std::max(done, free);
                left -= take;
            }
        }
        out.push_back({done, done - a, waited});
    }
    return out;
}

/** Core-seconds of @p trace's CPU requests at batch @p batch. */
double
coreSeconds(const CpuCostModel& cpu, const QueryTrace& trace, size_t batch)
{
    double total = 0.0;
    for (const Query& q : trace) {
        for (uint32_t left = q.size; left > 0;) {
            const uint32_t take =
                static_cast<uint32_t>(std::min<size_t>(left, batch));
            total += cpu.requestSeconds(take, 1);
            left -= take;
        }
    }
    return total;
}

/**
 * Run @p cfg on a seeded Poisson trace of production-sized queries,
 * offered at @p rho of the core pool's capacity, and compare every
 * measured latency with the recursion's, in completion order.
 */
void
expectEngineMatchesRecursion(const SimConfig& cfg, double rho,
                             uint64_t seed)
{
    const size_t n = 3000;
    const ModelService& only = cfg.bindings[0];
    const size_t cores = cfg.cores();
    // Precondition: the price of every batch is the same at any
    // number of busy cores.
    for (size_t batch = 1; batch <= QuerySizeDistribution::maxSize;
         batch++) {
        const double one = only.cpu.requestSeconds(batch, 1);
        for (size_t busy = 2; busy <= cores; busy++)
            ASSERT_EQ(only.cpu.requestSeconds(batch, busy), one)
                << "batch " << batch << " at " << busy << " busy cores";
    }

    LoadSpec load;
    load.arrivalSeed = seed;
    load.sizeSeed = seed + 1;
    TraceTemplate tmpl(load);
    tmpl.ensure(n);
    const QueryTrace unit = tmpl.materialize(1.0, n);
    const double qps = rho * static_cast<double>(cores) *
                       static_cast<double>(n) /
                       coreSeconds(only.cpu, unit, only.policy.perRequestBatch);
    const QueryTrace trace = tmpl.materialize(qps, n);

    ServingSimulator sim(cfg);
    const SimResult r = sim.run(trace);
    const std::vector<double>& measured = r.queryLatencySeconds.raw();

    std::vector<Finish> oracle = fifoRecursion(cfg, trace);
    oracle.erase(oracle.begin(),
                 oracle.begin() +
                     static_cast<std::ptrdiff_t>(warmupCount(n)));
    // The engine records latencies as queries complete.
    std::stable_sort(oracle.begin(), oracle.end(),
                     [](const Finish& x, const Finish& y) {
                         return x.time < y.time;
                     });
    ASSERT_EQ(measured.size(), oracle.size());
    size_t waited = 0;
    for (size_t i = 0; i < oracle.size(); i++) {
        ASSERT_EQ(measured[i], oracle[i].latency) << "completion " << i;
        waited += oracle[i].waited;
    }
    // The load queues, so the check covers waits, not only idle
    // service times.
    EXPECT_GT(waited, oracle.size() / 50);
}

CpuPlatform
skylakeWithCores(size_t cores)
{
    CpuPlatform p = CpuPlatform::skylake();
    p.cores = cores;
    return p;
}

SimConfig
cpuOnly(ModelId model, const CpuPlatform& platform, size_t batch)
{
    SchedulerPolicy policy;
    policy.perRequestBatch = batch;
    return SimConfig{contentionFree(model, platform), std::nullopt, policy};
}

TEST(SimOracle, FifoCoreRecursionMatchesTheEngineBitwise)
{
    // Batch 1000 keeps every query one request (the largest query is
    // QuerySizeDistribution::maxSize); 96 and 25 split the tail.
    for (const CpuPlatform& platform :
         {skylakeWithCores(1), skylakeWithCores(4), CpuPlatform::broadwell(),
          CpuPlatform::skylake()}) {
        for (size_t batch : {size_t{QuerySizeDistribution::maxSize},
                             size_t{96}, size_t{25}}) {
            for (ModelId model : {ModelId::DlrmRmc1, ModelId::Din}) {
                SCOPED_TRACE(platform.name + " cores " +
                             std::to_string(platform.cores) + " batch " +
                             std::to_string(batch) + " " + modelName(model));
                expectEngineMatchesRecursion(
                    cpuOnly(model, platform, batch), 0.8, 17);
            }
        }
    }
}

TEST(SimOracle, OffloadedQueriesQueueForOneFifoAccelerator)
{
    // Queries of 200 samples and more go to the accelerator, one at a
    // time; the rest split over the cores as above.
    const ModelId model = ModelId::DlrmRmc2;
    for (size_t cores : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(cores);
        SimConfig cfg = cpuOnly(model, skylakeWithCores(cores), 64);
        ModelService& only = cfg.bindings[0];
        only.gpu.emplace(ModelProfile::forModel(model),
                         GpuPlatform::gtx1080Ti());
        only.policy.gpuEnabled = true;
        only.policy.gpuQueryThreshold = 200;
        expectEngineMatchesRecursion(cfg, 0.6, 23);
    }
}

} // namespace
} // namespace deeprecsys
