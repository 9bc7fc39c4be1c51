/**
 * @file
 * zoo_tune: for each Table-1 model at its Medium SLA on one Skylake
 * machine, the static production baseline, DeepRecSched::tuneCpu and
 * DeepRecSched::tuneGpu — the Fig. 11 question — with the workload's
 * query sizes. The shared thread pool runs at a fixed count (2, or 1
 * on a one-core host); results are bit-identical at any count, so only
 * host time depends on it.
 */

#include <algorithm>
#include <cmath>
#include <thread>

#include "base/thread_pool.hh"
#include "core/deeprecsched.hh"
#include "workloads.hh"

using namespace deeprecsys;

namespace perfbench {

namespace {

/** Queries per simulator evaluation (the Fig. 11 reproduction's). */
constexpr size_t kQueries = 1500;
constexpr size_t kSmokeQueries = 300;

struct ZooState
{
    std::vector<DeepRecInfra> cpu;
    std::vector<DeepRecInfra> gpu;
};

void
digestTuning(Digest& d, const TuningResult& r)
{
    d.add(static_cast<uint64_t>(r.policy.perRequestBatch));
    d.add(static_cast<uint64_t>(r.policy.gpuEnabled));
    d.add(static_cast<uint64_t>(r.policy.gpuQueryThreshold));
    d.add(r.atBest.maxQps);
    d.add(static_cast<uint64_t>(r.atBest.evaluations));
    const SimResult& s = r.atBest.atMax;
    d.add(s.queryLatencySeconds);
    d.add(s.spanSeconds);
    d.add(s.achievedQps);
    d.add(static_cast<uint64_t>(s.numQueries));
    d.add(static_cast<uint64_t>(s.numRequests));
    d.add(s.cpuBusyCoreSeconds);
    d.add(s.gpuBusySeconds);
    d.add(s.gpuWorkFraction);
    for (const auto* curve : {&r.batchCurve, &r.thresholdCurve}) {
        d.add(static_cast<uint64_t>(curve->size()));
        for (const TuningPoint& p : *curve) {
            d.add(p.knob);
            d.add(p.qps);
        }
    }
}

/** The answer to the Fig. 11 question at the Medium SLA. */
struct ZooAnswer
{
    double cpuGain = 0;   ///< geomean DRS-CPU / baseline QPS
    double gpuGain = 0;   ///< geomean DRS-GPU / baseline QPS
    uint64_t points = 0;  ///< QPS searches run (tuning-curve points)
    bool valid = true;    ///< every search found a positive rate
    Digest digest;
};

ZooAnswer
answer(const ZooState& state, Tracer* tracer)
{
    ZooAnswer out;
    double log_cpu = 0.0;
    double log_gpu = 0.0;
    for (size_t k = 0; k < state.cpu.size(); k++) {
        const DeepRecInfra& cpu = state.cpu[k];
        const double sla = cpu.slaMs(SlaTier::Medium);
        TuningResult b;
        TuningResult c;
        TuningResult g;
        {
            SpanScope span(tracer, SpanKind::Baseline, k);
            b = DeepRecSched::baseline(cpu, sla);
        }
        {
            SpanScope span(tracer, SpanKind::TuneCpu, k);
            c = DeepRecSched::tuneCpu(cpu, sla);
        }
        {
            SpanScope span(tracer, SpanKind::TuneGpu, k);
            g = DeepRecSched::tuneGpu(state.gpu[k], sla);
        }
        for (const TuningResult* r : {&b, &c, &g}) {
            digestTuning(out.digest, *r);
            out.valid = out.valid && r->qps() > 0.0;
        }
        // The baseline is one search; each climb step is one more.
        out.points += 1 + c.batchCurve.size() + g.batchCurve.size() +
            g.thresholdCurve.size();
        if (b.qps() > 0.0) {
            log_cpu += std::log(c.qps() / b.qps());
            log_gpu += std::log(g.qps() / b.qps());
        }
    }
    const double n = static_cast<double>(state.cpu.size());
    out.cpuGain = std::exp(log_cpu / n);
    out.gpuGain = std::exp(log_gpu / n);
    return out;
}

/** The zoo_tune stage. */
class ZooTune final : public Stage
{
  public:
    explicit ZooTune(const Options& opt) : opt_(opt)
    {
        threads_ = std::max<size_t>(
            1, std::min<size_t>(2, std::thread::hardware_concurrency()));
        ThreadPool::setSharedThreads(threads_);
    }

    void clear() override { state_ = ZooState{}; }

    void
    setUp(Tracer* tracer) override
    {
        SpanScope span(tracer, SpanKind::SetupMachines);
        for (ModelId id : allModelIds()) {
            InfraConfig cfg;
            cfg.model = id;
            cfg.sizeDist = opt_.sizes;
            cfg.numQueries = opt_.smoke ? kSmokeQueries : kQueries;
            cfg.seed = opt_.subSeed(1);
            state_.cpu.emplace_back(cfg);
            cfg.attachGpu = true;
            state_.gpu.emplace_back(cfg);
        }
    }

    Digest
    rep(Tracer* tracer, Report& report) override
    {
        const Clock::time_point t0 = Clock::now();
        last_ = answer(state_, tracer);
        if (!tracer)
            walls_.push_back(secondsSince(t0));
        report.check(last_.valid,
                     "every baseline and tuning search found a rate",
                     3 * state_.cpu.size());
        return last_.digest;
    }

    void
    finish(const RepLog& log, Report& report) override
    {
        report.note("zoo_tune: " + std::to_string(state_.cpu.size()) +
                    " models at Medium SLA, " + std::to_string(threads_) +
                    " pool threads; DRS-CPU gain " +
                    std::to_string(last_.cpuGain) + "x, DRS-GPU gain " +
                    std::to_string(last_.gpuGain) + "x; untraced s: " +
                    listOf(walls_));
        report.note("digest zoo_tune " + last_.digest.hex());

        if (!opt_.trace) {
            report.metric("sim_sched_gain", last_.cpuGain, "x");
            report.metric("sim_gpu_gain", last_.gpuGain, "x");
            return;
        }
        const std::vector<SpanTotals>& tr = log.traced;
        const double tune_s = medianTotal(tr, SpanKind::Baseline) +
            medianTotal(tr, SpanKind::TuneCpu) +
            medianTotal(tr, SpanKind::TuneGpu);
        report.metric("sched.baseline_s",
                      medianTotal(tr, SpanKind::Baseline), "s");
        report.metric("sched.tune_cpu_s",
                      medianTotal(tr, SpanKind::TuneCpu), "s");
        report.metric("sched.tune_gpu_s",
                      medianTotal(tr, SpanKind::TuneGpu), "s");
        report.metric("search.points", static_cast<double>(last_.points),
                      "count");
        report.metric("search.ms_per_point",
                      1e3 * tune_s / static_cast<double>(last_.points),
                      "ms");
    }

  private:
    const Options& opt_;
    size_t threads_ = 1;
    ZooState state_;
    ZooAnswer last_;
    std::vector<double> walls_;   ///< untraced reps
};

} // namespace

std::unique_ptr<Stage>
makeZooTune(const Options& opt)
{
    return std::make_unique<ZooTune>(opt);
}

} // namespace perfbench
