/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 *
 * Every binary prints the series of one paper table or figure through
 * TextTable so outputs stay uniform and parseable. Seeds are fixed:
 * each binary's output is identical run-to-run. A bench that takes
 * arguments parses them with parseBenchArgs and writes every file
 * through writeOutput, so a bad argument or a failed write exits
 * non-zero instead of passing silently.
 */

#ifndef DRS_BENCH_COMMON_HH
#define DRS_BENCH_COMMON_HH

#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "base/table.hh"
#include "base/thread_pool.hh"
#include "cluster/cluster_sim.hh"
#include "cluster/model_mix.hh"
#include "core/deeprecsched.hh"
#include "obs/observer.hh"

namespace deeprecsys::bench {

/** The options a bench can take; each bench names the ones it does. */
enum BenchFlag : unsigned
{
    SmokeFlag = 1u << 0,   ///< --smoke: a seconds-long CI run
    TraceFlag = 1u << 1,   ///< --trace F: the observed run's trace
    MetricsFlag = 1u << 2, ///< --metrics F: its windowed metrics
};

/** A bench's command line. An empty path names no file. */
struct BenchArgs
{
    bool smoke = false;
    std::string tracePath;
    std::string metricsPath;
    std::string jsonPath; ///< the one positional argument
};

/**
 * Parse a bench's command line: the options in @p flags (BenchFlag
 * bits) and at most one positional JSON path. An unknown option, one
 * the bench does not take, an option without its file, or a second
 * path prints the usage and exits 2, before the bench runs or writes
 * anything.
 */
inline BenchArgs
parseBenchArgs(int argc, char** argv, unsigned flags)
{
    auto usage_error = [&](const std::string& why) {
        std::cerr << argv[0] << ": " << why << "\nusage: " << argv[0]
                  << (flags & SmokeFlag ? " [--smoke]" : "")
                  << (flags & TraceFlag ? " [--trace F]" : "")
                  << (flags & MetricsFlag ? " [--metrics F]" : "")
                  << " [out.json]\n";
        std::exit(2);
    };
    BenchArgs args;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        std::string* path = nullptr;
        if (arg == "--smoke" && (flags & SmokeFlag))
            args.smoke = true;
        else if (arg == "--trace" && (flags & TraceFlag))
            path = &args.tracePath;
        else if (arg == "--metrics" && (flags & MetricsFlag))
            path = &args.metricsPath;
        else if (arg.starts_with('-'))
            usage_error("unrecognized option " + arg);
        else if (!args.jsonPath.empty())
            usage_error("more than one output path");
        else
            args.jsonPath = arg;
        if (path) {
            if (i + 1 == argc || argv[i + 1][0] == '\0' ||
                argv[i + 1][0] == '-')
                usage_error(arg + " needs a file path");
            *path = argv[++i];
        }
    }
    return args;
}

/**
 * Write one output file through the checked writer (writeTextFile)
 * and print "wrote PATH". An empty @p path writes nothing; a failed
 * open, write or flush exits 1.
 */
inline void
writeOutput(const std::string& path, const char* what,
            const std::function<void(std::ostream&)>& body)
{
    if (path.empty())
        return;
    if (!writeTextFile(path, what, body))
        std::exit(1);
    std::cout << "wrote " << path << "\n";
}

/** Write @p table to @p path as a JSON array (TextTable::printJson). */
inline void
writeTableJson(const std::string& path, const TextTable& table)
{
    writeOutput(path, "JSON",
                [&](std::ostream& os) { table.printJson(os); });
}

/** Write @p observer's trace and metrics to the paths @p args names. */
inline void
writeObserverFiles(const BenchArgs& args, const obs::RunObserver& observer)
{
    writeOutput(args.tracePath, "trace",
                [&](std::ostream& os) { observer.writeTrace(os); });
    writeOutput(args.metricsPath, "metrics",
                [&](std::ostream& os) { observer.writeMetrics(os); });
}

/** Queries per simulator evaluation used by the reproductions. */
constexpr size_t benchQueries = 1500;

/** The three SLA tiers evaluated by the paper. */
inline const std::vector<SlaTier>&
allTiers()
{
    static const std::vector<SlaTier> tiers = {
        SlaTier::Low, SlaTier::Medium, SlaTier::High};
    return tiers;
}

/** Standard experiment context for one model on Skylake. */
inline InfraConfig
defaultInfra(ModelId model, bool gpu = false)
{
    InfraConfig cfg;
    cfg.model = model;
    cfg.attachGpu = gpu;
    cfg.numQueries = benchQueries;
    return cfg;
}

/** One CPU-only DLRM-RMC1 machine on Skylake at batch @p batch: the
 *  unit machine of the cluster benches. */
inline SimConfig
cpuMachine(size_t batch)
{
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc1);
    SchedulerPolicy policy;
    policy.perRequestBatch = batch;
    return SimConfig{CpuCostModel(profile, CpuPlatform::skylake()),
                     std::nullopt, policy};
}

/**
 * The sharded tier of the cluster benches: @p machines DLRM-RMC2
 * machines on Skylake at batch 256 with @p memory_bytes of embedding
 * memory each, behind a 150 us router hop at 12.5 GB/s, the model's
 * tables placed under @p placement with 8 tables per query — a
 * one-entry mix. The placement may be infeasible; callers check.
 */
inline ClusterConfig
rmc2ShardedTier(size_t machines, uint64_t memory_bytes,
                const PlacementSpec& placement = {})
{
    ModelMixEntry rmc2;
    rmc2.id = ModelId::DlrmRmc2;
    rmc2.policy.perRequestBatch = 256;
    const std::vector<ModelMixEntry> mix = {rmc2};
    ClusterConfig cluster;
    cluster.machines.assign(
        machines,
        colocatedMachine(mix, CpuPlatform::skylake(), memory_bytes));
    cluster.network.hopSeconds = 150e-6;
    cluster.network.gigabytesPerSecond = 12.5;
    cluster.sharding = colocatedSharding(
        mix, machineMemoryBudgets(cluster.machines), placement, 8);
    return cluster;
}

/** Geometric mean of a series (requires positive entries). */
inline double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/**
 * Print a latency-attribution StageSplit (obs/observer.hh) as the
 * paper's Figure-6-style decomposition: mean per-query milliseconds
 * and share of total latency per stage. The four stages partition the
 * total by construction, so the shares sum to 100%.
 */
inline void
printStageSplit(std::ostream& os, const obs::StageSplit& split)
{
    os << "latency attribution ("
       << TextTable::num(static_cast<int64_t>(split.queries))
       << " measured queries):\n";
    TextTable table({"stage", "mean ms/query", "share %"});
    const std::pair<const char*, double> stages[] = {
        {"queue", split.queueSeconds},
        {"service", split.serviceSeconds},
        {"network", split.networkSeconds},
        {"join wait", split.joinWaitSeconds},
        {"total", split.totalSeconds},
    };
    for (const auto& [name, seconds] : stages)
        table.addRow({name, TextTable::num(split.meanMs(seconds), 3),
                      TextTable::num(100.0 * split.fraction(seconds), 1)});
    table.print(os);
}

/**
 * Evaluate one sweep point per grid item on the shared thread pool
 * (DRS_THREADS) and return the results **in input order** — never in
 * completion order, so a bench's printed table and JSON are identical
 * at every thread count (the golden/bench-JSON CI checks diff them).
 * Each fn(item) must be independent and deterministic; with
 * DRS_THREADS=1 this is exactly the historical serial loop.
 */
template <typename Item, typename Fn>
auto
sweepMap(const std::vector<Item>& items, Fn fn)
{
    return ThreadPool::shared().parallelMap(
        items.size(), [&](size_t i) { return fn(items[i]); });
}

} // namespace deeprecsys::bench

#endif // DRS_BENCH_COMMON_HH
