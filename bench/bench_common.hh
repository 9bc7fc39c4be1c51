/**
 * @file
 * Shared helpers for the figure/table reproductions and the benches.
 *
 * Every figure prints the series of one paper table or figure through
 * TextTable so outputs stay uniform and parseable. Seeds are fixed:
 * each output is identical run-to-run. A bench that takes arguments
 * parses them with parseBenchArgs and writes every file through
 * writeOutput, so a bad argument or a failed write exits non-zero
 * instead of passing silently. Header-only, so the tests build it
 * with the benches off.
 */

#ifndef DRS_BENCH_COMMON_HH
#define DRS_BENCH_COMMON_HH

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <functional>
#include <iostream>
#include <mutex>
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

/** One CPU-only machine at batch @p batch; by default DLRM-RMC1 on
 *  Skylake, the unit machine of the cluster benches. */
inline SimConfig
cpuMachine(size_t batch, ModelId model = ModelId::DlrmRmc1,
           const CpuPlatform& platform = CpuPlatform::skylake())
{
    SchedulerPolicy policy;
    policy.perRequestBatch = batch;
    return SimConfig{CpuCostModel(ModelProfile::forModel(model), platform),
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

/**
 * The tune memo the figure reproductions share (bench/reproduce.cc).
 * Figures tune the same (machine, SLA) pairs: fig10's, fig12's and
 * fig13's batch climbs are fig11 cells, and every DRS-GPU tune starts
 * from a batch climb that offloads nothing (Section IV-C), which
 * prices exactly as the same machine without its accelerator does.
 * The memo runs each distinct tune once per process.
 */
class Reproduction
{
  public:
    /**
     * DeepRecSched's tune of @p config at @p sla_ms: tuneCpu on a
     * CPU-only machine; on a GPU-attached one, tuneGpu from this
     * memo's tune of the same machine without the accelerator. The
     * key is the whole config plus the SLA, the accelerator's
     * platform only when one is attached. Each distinct tune runs
     * once, under std::call_once, so a caller that asks while another
     * thread runs it waits for that run. The reference lives as long
     * as the memo.
     */
    const TuningResult&
    tune(const InfraConfig& config, double sla_ms)
    {
        InfraConfig key = config;
        if (!key.attachGpu)
            key.gpu = GpuPlatform{};
        Entry& entry = find(key, sla_ms);
        std::call_once(entry.once, [&] {
            const DeepRecInfra infra(key);
            if (!key.attachGpu) {
                entry.result = DeepRecSched::tuneCpu(infra, sla_ms);
                return;
            }
            InfraConfig cpu_only = key;
            cpu_only.attachGpu = false;
            entry.result = DeepRecSched::tuneGpu(infra, sla_ms,
                                                 tune(cpu_only, sla_ms));
        });
        return entry.result;
    }

    /** Distinct tunes asked for, with or without the accelerator. */
    size_t
    distinctTunes(bool with_gpu) const
    {
        std::lock_guard<std::mutex> lock(mu);
        return std::ranges::count(entries, with_gpu, [](const Entry& e) {
            return e.config.attachGpu;
        });
    }

  private:
    struct Entry
    {
        const InfraConfig config;
        const double slaMs;
        std::once_flag once;
        TuningResult result;
    };

    Entry&
    find(const InfraConfig& key, double sla_ms)
    {
        std::lock_guard<std::mutex> lock(mu);
        for (Entry& entry : entries)
            if (entry.config == key && entry.slaMs == sla_ms)
                return entry;
        return entries.emplace_back(key, sla_ms);
    }

    mutable std::mutex mu;
    std::deque<Entry> entries;  ///< never erased: references stay valid
};

} // namespace deeprecsys::bench

#endif // DRS_BENCH_COMMON_HH
