/**
 * @file
 * The busy tier the book and observer tests drive: eight colocated
 * machines under a hot crash and gray plan with failover, TwoStage
 * joins over replicated shards, and (retryTier) deadline admission
 * with degrade and client retries, plus runners for both cluster
 * drivers. Header-only; each test file gets its own copy.
 */

#ifndef DRS_TESTS_BUSY_TIER_HH
#define DRS_TESTS_BUSY_TIER_HH

#include <algorithm>
#include <utility>
#include <vector>

#include "cluster/autoscaler.hh"
#include "cluster/cluster_sim.hh"
#include "cluster/model_mix.hh"
#include "loadgen/query_stream.hh"
#include "obs/observer.hh"

namespace deeprecsys {
namespace {

/** RMC2/WnD/NCF colocated on every machine (per-request batch 256). */
std::vector<ModelMixEntry>
tierMix()
{
    std::vector<ModelMixEntry> mix;
    for (auto [id, share] : {std::pair{ModelId::DlrmRmc2, 0.4},
                             std::pair{ModelId::WideAndDeep, 0.4},
                             std::pair{ModelId::Ncf, 0.2}}) {
        ModelMixEntry entry;
        entry.id = id;
        entry.trafficFraction = share;
        entry.policy.perRequestBatch = 256;
        mix.push_back(entry);
    }
    return mix;
}

/** 8 colocated machines, 2 replicas per table, fan-out joins, a hot
 *  crash + gray plan with failover: every part death path is live. */
ClusterConfig
busyTier()
{
    const std::vector<ModelMixEntry> mix = tierMix();
    ClusterConfig cluster;
    for (size_t m = 0; m < 8; m++)
        cluster.machines.push_back(colocatedMachine(
            mix, CpuPlatform::skylake(), 3'000'000'000ULL));
    PlacementSpec placement;
    placement.strategy = PlacementStrategy::GreedyBySize;
    placement.minReplicas = 2;
    cluster.sharding = colocatedSharding(
        mix, machineMemoryBudgets(cluster.machines), placement, 6);
    cluster.modelMix = mix;
    cluster.network.hopSeconds = 150e-6;
    cluster.network.gigabytesPerSecond = 12.5;
    cluster.faults.crashesPerHour = 900.0;
    cluster.faults.grayPerHour = 240.0;
    cluster.faults.repairSeconds = 0.5;
    cluster.faults.faultTolerance = 2;
    cluster.faults.maxFailovers = 2;
    return cluster;
}

QueryTrace
busyTrace(double qps = 2500.0, size_t count = 6000)
{
    LoadSpec load;
    load.arrivalSeed = 0xb00c;
    load.sizeSeed = 0xb00d;
    MixedTraceTemplate mixed(load, mixFractions(tierMix()));
    mixed.ensure(count);
    return mixed.materialize(qps, count);
}

/** The busy tier with deadline admission and client retries on: shed
 *  queries wait out a backoff unsettled, then come back. */
ClusterConfig
retryTier()
{
    ClusterConfig cfg = busyTier();
    cfg.overload.admission = AdmissionKind::Deadline;
    cfg.overload.deadlineSeconds = 0.015;
    cfg.overload.degrade = true;
    cfg.overload.maxRetries = 2;
    return cfg;
}

/** The elastic tier over @p cluster: reactive, shard-aware. */
AutoscaleSpec
elasticSpec(const ClusterConfig& cluster)
{
    AutoscaleSpec spec;
    spec.cluster = cluster;
    spec.routing.kind = RoutingKind::ShardAware;
    spec.slaMs = 100.0;
    spec.controlIntervalSeconds = 0.4;
    spec.warmupDelaySeconds = 0.2;
    return spec;
}

AutoscaleResult
runElastic(const AutoscaleSpec& spec, const QueryTrace& trace,
           obs::RunObserver* observer = nullptr)
{
    ScalingPolicySpec policy;
    policy.kind = ScalingPolicyKind::Reactive;
    policy.minMachines = std::min<size_t>(4, spec.cluster.machines.size());
    Autoscaler scaler(spec);
    scaler.setObserver(observer);
    return scaler.run(trace, policy);
}

ClusterResult
runStatic(const ClusterConfig& cfg, const QueryTrace& trace,
          obs::RunObserver* observer = nullptr)
{
    ClusterSimulator sim(cfg);
    sim.setObserver(observer);
    return sim.run(trace, RoutingSpec{RoutingKind::ShardAware});
}

} // namespace
} // namespace deeprecsys

#endif // DRS_TESTS_BUSY_TIER_HH
