/**
 * @file
 * Cluster routing-policy sweep: fleet tail latency of each routing
 * policy at equal offered load on a heterogeneous cluster.
 *
 * The cluster mixes nominal and 1.4x-slower machines (silicon and
 * co-runner variation, Section III-D) plus accelerator-equipped
 * machines, serving the production heavy-tailed query-size mix of
 * Figure 5. Queue-aware policies (join-shortest-queue,
 * power-of-two-choices) shed the load imbalance that uniform-random
 * and round-robin routing leave on slow machines, which shows up
 * directly in fleet p99 — the cluster-tier analogue of the paper's
 * tail-latency argument.
 *
 * Host-measured lines: see its entry in tools/outputs.json.
 */

#include <fstream>

#include "bench/bench_common.hh"
#include "cluster/cluster_sim.hh"
#include "loadgen/query_stream.hh"

using namespace deeprecsys;

namespace {

/** 12 CPU machines (alternating speed) + 4 GPU machines. */
ClusterConfig
mixedCluster()
{
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc1);
    const CpuCostModel cpu(profile, CpuPlatform::skylake());

    ClusterConfig cfg;
    for (size_t m = 0; m < 12; m++) {
        SchedulerPolicy policy;
        policy.perRequestBatch = 256;
        cfg.machines.push_back(SimConfig{cpu, std::nullopt, policy});
        cfg.machines.back().slowdown = m % 3 == 2 ? 1.4 : 1.0;
    }
    for (size_t m = 0; m < 4; m++) {
        SchedulerPolicy policy;
        policy.perRequestBatch = 256;
        policy.gpuEnabled = true;
        policy.gpuQueryThreshold = 400;
        cfg.machines.push_back(
            SimConfig{cpu, GpuCostModel(profile, GpuPlatform::gtx1080Ti()),
                      policy});
    }
    return cfg;
}

} // namespace

int
main(int argc, char** argv)
{
    printBanner(std::cout,
                "Cluster routing sweep: fleet tail vs policy at equal"
                " offered load");

    const ClusterConfig cluster = mixedCluster();
    const ClusterSimulator sim(cluster);
    const size_t queries = 24000;

    TextTable table({"offered QPS", "policy", "p50 (ms)", "p95 (ms)",
                     "p99 (ms)", "mean util", "p99 vs random"});

    for (double qps : {16000.0, 22000.0, 26000.0}) {
        LoadSpec load;
        load.qps = qps;
        QueryStream stream(load);
        const QueryTrace trace = stream.generate(queries);

        // Evaluate every policy first — concurrently on the shared
        // pool, consumed in input order — so each row can be compared
        // against the uniform-random baseline.
        const std::vector<ClusterResult> results =
            bench::sweepMap(allRoutingKinds(), [&](RoutingKind kind) {
                RoutingSpec spec;
                spec.kind = kind;
                spec.seed = 0xfeedULL;
                spec.sizeThreshold = 400;
                return sim.run(trace, spec);
            });
        double random_p99 = 0.0;
        for (size_t i = 0; i < results.size(); i++) {
            if (allRoutingKinds()[i] == RoutingKind::UniformRandom)
                random_p99 = results[i].p99Ms();
        }
        for (size_t i = 0; i < results.size(); i++) {
            const RoutingKind kind = allRoutingKinds()[i];
            const ClusterResult& r = results[i];
            const std::string vs_random =
                kind == RoutingKind::UniformRandom || random_p99 <= 0.0
                    ? "-"
                    : TextTable::num(r.p99Ms() / random_p99, 2) + "x";
            table.addRow({TextTable::num(qps, 0),
                          routingKindName(kind),
                          TextTable::num(r.tailMs(50), 2),
                          TextTable::num(r.p95Ms(), 2),
                          TextTable::num(r.p99Ms(), 2),
                          TextTable::num(r.meanCpuUtilization, 2),
                          vs_random});
        }
    }
    table.print(std::cout);
    std::cout << "\nJoin-shortest-queue and power-of-two-choices hold a"
                 " measurably lower fleet p99 than uniform-random at"
                 " equal offered load; size-aware routing additionally"
                 " keeps the heavy tail of Figure 5 on accelerator"
                 " machines.\n";

    if (argc > 1) {
        std::ofstream json(argv[1]);
        table.printJson(json);
        std::cout << "wrote " << argv[1] << "\n";
    }
    return 0;
}
