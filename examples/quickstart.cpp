/**
 * @file
 * Quickstart: build a recommendation model from the zoo, serve real
 * queries through the multi-threaded engine, and tune the per-request
 * batch size with DeepRecSched on the simulator.
 *
 * Run: ./quickstart [model-name]   (default DLRM-RMC1)
 *
 * Host-measured lines: see its entry in tools/outputs.json.
 */

#include <iostream>

#include "core/deeprecsched.hh"
#include "loadgen/query_stream.hh"
#include "serving/engine.hh"

using namespace deeprecsys;

int
main(int argc, char** argv)
{
    const ModelId id =
        argc > 1 ? modelFromName(argv[1]) : ModelId::DlrmRmc1;

    // --- 1. Materialize the model and run one real inference. ---
    const RecModel model(modelConfig(id), /*seed=*/42);
    Rng rng(7);
    const RecBatch batch = model.makeBatch(4, rng);
    const Tensor ctr = model.forward(batch);
    std::cout << "model " << modelName(id) << ": scored "
              << ctr.dim(0) << " user-item pairs, CTR[0]="
              << ctr.at(0, 0) << "\n";

    // --- 2. Serve a production-like query trace on real threads. ---
    LoadSpec load;
    load.qps = 50.0;
    QueryStream stream(load);
    const QueryTrace trace = stream.generate(64);

    EngineConfig engine_cfg;
    engine_cfg.numWorkers = 2;
    engine_cfg.perRequestBatch = 64;
    ServingEngine engine(model, engine_cfg);
    const EngineResult served = engine.serveAll(trace);
    std::cout << "served " << served.numQueries << " queries as "
              << served.numRequests << " requests: mean "
              << served.meanMs() << " ms, p95 " << served.p95Ms()
              << " ms\n";

    // --- 3. Tune the scheduler against the SLA on the simulator. ---
    InfraConfig infra_cfg;
    infra_cfg.model = id;
    infra_cfg.numQueries = 1500;
    DeepRecInfra infra(infra_cfg);
    const double sla = infra.slaMs(SlaTier::Medium);
    const TuningResult base = DeepRecSched::baseline(infra, sla);
    const TuningResult tuned = DeepRecSched::tuneCpu(infra, sla);
    std::cout << "SLA p95<=" << sla << " ms: static baseline (batch "
              << base.policy.perRequestBatch << ") sustains "
              << base.qps() << " QPS; DeepRecSched picks batch "
              << tuned.policy.perRequestBatch << " and sustains "
              << tuned.qps() << " QPS ("
              << tuned.qps() / base.qps() << "x)\n";
    return 0;
}
