/**
 * @file
 * engine_serve: the real ServingEngine (2 workers) running DLRM-RMC1
 * forward passes, fed open-loop Poisson traffic with the workload's
 * query sizes at three fixed rates (scaled by Options::loadScale): on
 * production sizes two below the knee of a 4-core x86 host (whose knee
 * moved between about 150 and 280 q/s from run to run) and one above
 * it. It is the only stage that runs real kernels and runs none of the
 * simulator.
 *
 * Latency is measured by the engine from submitQuery, not from each
 * query's due time, so generator lateness is not counted. FC and
 * embedding rates are computed from RecModel's FLOP and byte counts
 * over the measured operator seconds, not counted by hardware.
 */

#include "loadgen/query_stream.hh"
#include "serving/engine.hh"
#include "workloads.hh"

using namespace deeprecsys;

namespace perfbench {

namespace {

/**
 * Offered rates in queries/s of production-sized queries; the middle
 * one carries serve_*.
 */
constexpr double kRates[3] = {120.0, 160.0, 260.0};
constexpr const char* kRateTags[3] = {"lo.", "", "hi."};
constexpr size_t kMid = 1;

constexpr size_t kQueriesPerRate = 1000;
constexpr size_t kSmokeQueries = 60;
constexpr size_t kWorkers = 2;
constexpr size_t kBatch = 256;

struct EngineState
{
    std::unique_ptr<RecModel> model;
    std::unique_ptr<ServingEngine> engine;   // borrows *model
    std::vector<QueryTrace> traces;          // one per rate
};

uint64_t
expectedRequests(const QueryTrace& trace)
{
    uint64_t n = 0;
    for (const Query& q : trace)
        n += (q.size + kBatch - 1) / kBatch;
    return n;
}

/** The engine_serve stage. */
class EngineServe final : public Stage
{
  public:
    explicit EngineServe(const Options& opt)
        : opt_(opt),
          slaSeconds_(slaTargetMs(modelConfig(ModelId::DlrmRmc1),
                                  SlaTier::Medium) *
                      1e-3),
          last_(3), p50_(3), p99_(3), miss_(3), meets_(3)
    {
    }

    void
    clear() override
    {
        state_.engine.reset();   // before the model it borrows
        state_.model.reset();
        state_.traces.clear();
    }

    void
    setUp(Tracer* tracer) override
    {
        {
            SpanScope span(tracer, SpanKind::SetupModel);
            state_.model = std::make_unique<RecModel>(
                modelConfig(ModelId::DlrmRmc1), opt_.subSeed(2));
            EngineConfig cfg;
            cfg.numWorkers = kWorkers;
            cfg.perRequestBatch = kBatch;
            cfg.inputSeed = opt_.subSeed(3);
            state_.engine =
                std::make_unique<ServingEngine>(*state_.model, cfg);
        }
        SpanScope span(tracer, SpanKind::SetupTrace);
        for (size_t r = 0; r < 3; r++) {
            LoadSpec load;
            load.qps = opt_.loadScale * kRates[r];
            load.sizes = opt_.sizes;
            load.arrivalSeed = opt_.subSeed(10 + r);
            load.sizeSeed = opt_.subSeed(20 + r);
            QueryStream stream(load);
            state_.traces.push_back(stream.generate(
                opt_.smoke ? kSmokeQueries : kQueriesPerRate));
        }
    }

    Digest rep(Tracer* tracer, Report& report) override;
    void finish(const RepLog& log, Report& report) override;

  private:
    const Options& opt_;
    const double slaSeconds_;
    EngineState state_;
    std::vector<EngineResult> last_;
    // Per rate, across reps: p50, p99, miss fraction, backlog verdict.
    std::vector<std::vector<double>> p50_, p99_, miss_, meets_;
    // Operator seconds per served sample over all three rates, per rep.
    std::vector<double> opUs_;
    std::vector<double> walls_;   ///< untraced reps
    Digest digest_;               ///< of the last rep
};

Digest
EngineServe::rep(Tracer* tracer, Report& report)
{
    const Clock::time_point t0 = Clock::now();
    Digest digest;
    double op_s = 0.0;
    double samples = 0.0;
    for (size_t r = 0; r < 3; r++) {
        const QueryTrace& trace = state_.traces[r];
        {
            SpanScope span(tracer, SpanKind::ServeRate, r);
            last_[r] = state_.engine->serveOpenLoop(trace);
        }
        const EngineResult& res = last_[r];
        const SampleStats& lat = res.queryLatencySeconds;
        report.check(res.numQueries == trace.size() &&
                         lat.count() == trace.size(),
                     "every query completes", trace.size());
        report.check(res.numRequests == expectedRequests(trace),
                     "requests == sum of ceil(size / batch)");
        size_t over = 0;
        for (double v : lat.raw())
            over += v > slaSeconds_ ? 1 : 0;
        p50_[r].push_back(lat.percentile(50) * 1e3);
        p99_[r].push_back(lat.percentile(99) * 1e3);
        miss_[r].push_back(static_cast<double>(over) /
                           static_cast<double>(trace.size()));
        // A growing backlog shows as a drain past the last arrival
        // longer than the latency limit itself.
        const double drain = res.wallSeconds - trace.back().arrivalSeconds;
        meets_[r].push_back(
            lat.percentile(99) <= slaSeconds_ && drain <= slaSeconds_ ? 1.0
                                                                      : 0.0);
        for (const Query& q : trace) {
            digest.add(q.arrivalSeconds);
            digest.add(static_cast<uint64_t>(q.size));
            samples += q.size;
        }
        digest.add(res.numQueries);
        digest.add(res.numRequests);
        op_s += res.operatorBreakdown.total();
    }
    opUs_.push_back(1e6 * op_s / samples);
    if (!tracer)
        walls_.push_back(secondsSince(t0));
    digest_ = digest;
    return digest;
}

void
EngineServe::finish(const RepLog&, Report& report)
{
    double qps_at_sla = 0.0;
    for (size_t r = 0; r < 3; r++) {
        const double rate = opt_.loadScale * kRates[r];
        if (median(meets_[r]) >= 0.5)
            qps_at_sla = rate;
        report.note("engine_serve rate " + std::to_string(rate) +
                    " q/s: p50 " + std::to_string(median(p50_[r])) +
                    " ms, p99 " + std::to_string(median(p99_[r])) +
                    " ms, over " + std::to_string(slaSeconds_ * 1e3) +
                    " ms " + std::to_string(median(miss_[r])) + ", " +
                    std::to_string(last_[r].numQueries) + " queries");
    }
    report.note("engine_serve untraced s: " + listOf(walls_) +
                "; op us/sample: " + listOf(opUs_));
    report.note("digest engine_serve " + digest_.hex());
    if (!opt_.trace)
        return;

    // The serve_* metrics spread too far between runs on a shared host
    // to bound a regression, so they are reported on traced runs only:
    // the latencies because open-loop queueing amplifies host
    // slowdowns, the kernels' work rate because host speed drifts.
    report.metric("serve_op_us_per_sample", median(opUs_), "us");
    report.metric("serve_p50_ms", median(p50_[kMid]), "ms");
    report.metric("serve_p99_ms", median(p99_[kMid]), "ms");
    report.metric("serve_miss_frac", median(miss_[kMid]), "frac");
    report.metric("serve_qps_at_sla", qps_at_sla, "q/s");
    const RecModel& model = *state_.model;
    for (size_t r = 0; r < 3; r++) {
        const EngineResult& res = last_[r];
        const OperatorStats& ops = res.operatorBreakdown;
        const std::string tag = kRateTags[r];
        double samples = 0.0;
        for (const Query& q : state_.traces[r])
            samples += q.size;
        const double fc_s = ops.seconds(OpClass::Fc);
        const double emb_s = ops.seconds(OpClass::Embedding);
        report.metric(tag + "op.fc_s", fc_s, "s");
        report.metric(tag + "op.embedding_s", emb_s, "s");
        report.metric(tag + "op.interaction_s",
                      ops.seconds(OpClass::Interaction), "s");
        report.metric(tag + "serve.requests",
                      static_cast<double>(res.numRequests), "count");
        report.metric(tag + "serve.worker_busy_frac",
                      ops.total() / (kWorkers * res.wallSeconds), "frac");
        report.metric(tag + "kernel.fc_gflops",
                      fc_s > 0.0 ? samples * model.denseFlopsPerSample() /
                              fc_s * 1e-9
                                 : 0.0,
                      "GFLOP/s");
        report.metric(tag + "kernel.emb_gbps",
                      emb_s > 0.0 ? samples *
                              model.embeddingBytesPerSample() / emb_s *
                              1e-9
                                  : 0.0,
                      "GB/s");
    }
}

} // namespace

std::unique_ptr<Stage>
makeEngineServe(const Options& opt)
{
    return std::make_unique<EngineServe>(opt);
}

} // namespace perfbench
