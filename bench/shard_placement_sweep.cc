/**
 * @file
 * Embedding-shard placement sweep: memory per machine vs fleet tail
 * latency — the capacity-driven scale-out question (Lui et al.).
 *
 * DLRM-RMC2's 32 embedding tables (8.2 GB logical) are placed across
 * an 8-machine tier under a per-machine memory budget, swept from
 * "barely fits sharded" to "most of the model fits everywhere". Each
 * placement strategy is evaluated with shard-aware routing: queries
 * whose working set sits on one machine stay single-hop, the rest fan
 * out over a set cover of the replicas and join, paying a per-hop
 * network latency + serialization term per part. Fan-out is priced
 * under both join models: the historical optimistic join (leader
 * dense stacks concurrent with remote lookups) and the faithful
 * two-stage join (the leader's predict stack waits for the pooled
 * remote embeddings, then runs as a second service phase) — the
 * difference between the two columns is the fan-out tax the
 * optimistic model under-reported. The sweep runs at
 * two operating points because the tradeoff changes sign with load:
 * lightly loaded, fan-out is free model parallelism (gathers split
 * across machines); under load, joining on the slowest of many parts
 * plus the per-part dispatch overheads saturates the single-copy
 * strategies first, and only replication can spend memory headroom
 * to buy the tail back. A strategy that cannot fit the tables at a
 * budget reports "infeasible" — hot/cold replication buys nothing
 * when there is no headroom to replicate into.
 *
 * Usage: shard_placement_sweep [out.json]  (also writes the table as
 * a JSON array when a path is given; CI archives it as an artifact).
 *
 * Host-measured lines: see its entry in tools/outputs.json.
 */

#include "bench/bench_common.hh"
#include "cluster/cluster_sim.hh"
#include "loadgen/query_stream.hh"

using namespace deeprecsys;

namespace {

constexpr double kGB = 1e9;

} // namespace

int
main(int argc, char** argv)
{
    const bench::BenchArgs args = bench::parseBenchArgs(argc, argv, 0);
    printBanner(std::cout,
                "Shard placement sweep: memory per machine vs fleet"
                " p99 (DLRM-RMC2, 8 machines, shard-aware routing)");

    const ModelConfig model = modelConfig(ModelId::DlrmRmc2);
    const std::vector<EmbeddingTableInfo> tables = embeddingTables(model);
    uint64_t total_bytes = 0;
    for (const EmbeddingTableInfo& t : tables)
        total_bytes += t.bytes;
    std::cout << "model: " << model.name << ", "
              << tables.size() << " tables, "
              << TextTable::num(static_cast<double>(total_bytes) / kGB, 2)
              << " GB logical embedding storage\n";

    TextTable table({"offered QPS", "GB/machine", "strategy", "replicas",
                     "mean fanout", "p50 (ms)", "p95 (ms)",
                     "p99 opt (ms)", "p99 2stage (ms)", "join tax",
                     "mean util"});

    for (double qps : {2200.0, 3000.0}) {
    LoadSpec load;
    load.qps = qps;
    QueryStream stream(load);
    const QueryTrace trace = stream.generate(16000);

    // The (budget x strategy) grid: every cell is two independent
    // cluster simulations, evaluated concurrently on the shared pool;
    // rows print in input order regardless of completion order.
    std::vector<std::pair<double, PlacementStrategy>> grid;
    for (double budget_gb : {1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 9.0}) {
        for (PlacementStrategy strategy : allPlacementStrategies())
            grid.push_back({budget_gb, strategy});
    }
    const auto rows = bench::sweepMap(
        grid,
        [&](const std::pair<double, PlacementStrategy>& cell) {
            const auto& [budget_gb, strategy] = cell;
            PlacementSpec placement_spec;
            placement_spec.strategy = strategy;
            ClusterConfig cluster = bench::rmc2ShardedTier(
                8, static_cast<uint64_t>(budget_gb * kGB), placement_spec);
            const ShardPlacement& placement = cluster.sharding->placement;
            if (!placement.feasible()) {
                return std::vector<std::string>{
                    TextTable::num(qps, 0),
                    TextTable::num(budget_gb, 2),
                    placementStrategyName(strategy),
                    "-", "-", "-", "-", "-", "infeasible", "-", "-"};
            }

            RoutingSpec routing;
            routing.kind = RoutingKind::ShardAware;
            cluster.join = JoinModel::Optimistic;
            const ClusterResult opt =
                ClusterSimulator(cluster).run(trace, routing);
            cluster.join = JoinModel::TwoStage;
            const ClusterResult r =
                ClusterSimulator(cluster).run(trace, routing);

            return std::vector<std::string>{
                TextTable::num(qps, 0),
                TextTable::num(budget_gb, 2),
                placementStrategyName(strategy),
                TextTable::num(static_cast<int64_t>(
                    placement.totalReplicas())),
                TextTable::num(r.meanFanout, 2),
                TextTable::num(r.tailMs(50), 2),
                TextTable::num(r.p95Ms(), 2),
                TextTable::num(opt.p99Ms(), 2),
                TextTable::num(r.p99Ms(), 2),
                TextTable::num(r.p99Ms() / opt.p99Ms(), 2),
                TextTable::num(r.meanCpuUtilization, 2)};
        });
    for (const std::vector<std::string>& row : rows)
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\nAt light load, sharding acts as free model"
                 " parallelism: the embedding gathers split across"
                 " machines and the single-copy strategies post the"
                 " best p50. Under load the sign flips: every"
                 " fanned-out query joins on its slowest part and"
                 " pays per-part dispatch overheads, so single-copy"
                 " placement saturates first and its tail explodes,"
                 " while hot/cold replication converts memory"
                 " headroom into single-hop routing for the popular"
                 " tables and holds the fleet p99 — memory per"
                 " machine buys tail latency, the capacity-driven"
                 " scale-out tradeoff. The join-tax column is the p99"
                 " ratio of the two-stage join (leader waits on"
                 " pooled remote embeddings before its predict"
                 " stack) over the optimistic join that let them"
                 " overlap: the fan-out tax the optimistic model"
                 " under-reported, which replication also avoids.\n";

    bench::writeTableJson(args.jsonPath, table);
    return 0;
}
