#include "cluster_sim.hh"

#include <algorithm>

#include "base/logging.hh"
#include "cluster/cluster_loop.hh"
#include "loadgen/query_stream.hh"

namespace deeprecsys {

std::vector<uint64_t>
machineMemoryBudgets(const std::vector<SimConfig>& machines)
{
    std::vector<uint64_t> budgets;
    budgets.reserve(machines.size());
    for (const SimConfig& machine : machines)
        budgets.push_back(machine.memoryBytes);
    return budgets;
}

namespace {

/** Refuse an enabled overload policy the controller cannot run. */
void
validateOverload(const OverloadConfig& overload, const char* tier)
{
    // The deadline is the pressure scale of both the deadline policy
    // and the degrade shrink, so either one requires it.
    if ((overload.admission == AdmissionKind::Deadline || overload.degrade) &&
        !(overload.deadlineSeconds > 0.0))
        drs_fatal(tier, ": deadline admission/degrade needs "
                  "deadlineSeconds > 0");
    if (overload.priorityClasses > OverloadConfig::maxPriorityClasses)
        drs_fatal(tier, ": ", overload.priorityClasses,
                  " priority classes exceed the ",
                  OverloadConfig::maxPriorityClasses,
                  " the priority margin allows; the lowest class could "
                  "never admit");
}

} // namespace

void
validateClusterConfig(const ClusterConfig& cfg, const char* tier)
{
    if (cfg.machines.empty())
        drs_fatal(tier, " needs machines");
    if (cfg.machines.size() > kMaxClusterMachines)
        drs_fatal(tier, ": ", cfg.machines.size(), " machines exceed the ",
                  kMaxClusterMachines, " a tier can hold");
    for (const SimConfig& machine : cfg.machines)
        MachineEngine::validate(machine);
    validatePriorityClassCount(cfg.overload.priorityClasses);
    if (cfg.modelMix.size() > kMaxMixModels)
        drs_fatal(tier, ": a mix of ", cfg.modelMix.size(),
                  " models exceeds the ", kMaxMixModels, " a query can name");
    if (!cfg.modelMix.empty()) {
        // Fraction rules are the trace splitter's (non-negative, sum
        // to 1). Every machine serves the whole mix, so every routing
        // policy, admission estimate and scale-down may pick any
        // accepting machine for any query.
        (void)splitCountByFraction(mixFractions(cfg.modelMix), 0);
        for (size_t m = 0; m < cfg.machines.size(); m++) {
            if (cfg.machines[m].bindings.size() < cfg.modelMix.size())
                drs_fatal(tier, ": machine ", m, " binds ",
                          cfg.machines[m].bindings.size(), " of the mix's ",
                          cfg.modelMix.size(), " models; every machine "
                          "needs a binding per mix entry");
        }
    }
    if (cfg.sharding.has_value()) {
        const ShardPlacement& placement = cfg.sharding->placement;
        if (!placement.feasible())
            drs_fatal(tier, " sharding needs a feasible placement");
        if (placement.numMachines() != cfg.machines.size())
            drs_fatal(tier, ": placement machine count mismatch");
        // One namespace per served model, tiling the placed tables in
        // order: no table aliased between two models, none unreached.
        const std::vector<ModelTableSpace>& spaces = cfg.sharding->models;
        const size_t served = std::max<size_t>(1, cfg.modelMix.size());
        if (spaces.size() != served)
            drs_fatal(tier, ": ", spaces.size(), " table namespaces for ",
                      served, " served models");
        size_t next = 0;
        for (size_t k = 0; k < spaces.size(); k++) {
            if (spaces[k].base != next || spaces[k].set.numTables == 0)
                drs_fatal(tier, ": table namespace ", k, " must start at "
                          "table ", next, " and hold at least one table");
            next += spaces[k].set.numTables;
        }
        if (next != placement.numTables())
            drs_fatal(tier, ": table namespaces cover ", next, " of the ",
                      placement.numTables(), " placed tables");
        for (size_t m = 0; m < cfg.machines.size(); m++) {
            const uint64_t budget = cfg.machines[m].memoryBytes;
            if (budget != 0 && placement.bytesOnMachine(m) > budget)
                drs_fatal(tier, ": placement exceeds machine ", m,
                          "'s memory budget");
        }
    }
    if (cfg.faults.enabled()) {
        validateFaultPlan(cfg.faults);
        // Crashing a machine destroys its shard replicas for the
        // outage; refuse placements that cannot survive the plan's
        // declared tolerance (ShardPlacement availability validator).
        if (cfg.sharding.has_value() && cfg.faults.faultTolerance > 0 &&
            !cfg.sharding->placement.replicatedFor(
                cfg.faults.faultTolerance))
            drs_fatal(tier, ": placement replication below the declared "
                      "fault tolerance");
    }
    if (cfg.hedge.enabled()) {
        if (!cfg.sharding.has_value())
            drs_fatal(tier, ": hedged requests need a sharded tier (only "
                      "fan-out parts hedge)");
    }
    if (cfg.overload.enabled())
        validateOverload(cfg.overload, tier);
}

namespace {

/**
 * The static tier's membership: every machine accepts, a crashed
 * machine stops accepting (its engine's work dies) and accepts again
 * at repair. No control tick, no power books.
 */
class FixedMembership final : public Membership
{
  public:
    bool queryBooks() const override { return true; }

    void
    crash(ClusterLoop& loop, uint32_t m, double now) override
    {
        loop.view.setAccepting(m, false);
        loop.killEngine(m, now);
    }

    void
    recover(ClusterLoop& loop, uint32_t m) override
    {
        loop.view.setAccepting(m, true);
    }

    bool
    serving(const ClusterLoop& loop, size_t m) const override
    {
        return loop.view.accepting(m);
    }
};

} // namespace

ClusterSimulator::ClusterSimulator(ClusterConfig config)
    : cfg(std::move(config))
{
    validateClusterConfig(cfg, "cluster");
}

ClusterResult
ClusterSimulator::run(const QueryTrace& trace, RoutingPolicy& policy) const
{
    ClusterResult result;
    FixedMembership members;
    ClusterLoop(cfg, trace, policy, members, obs_, result).run();
    return result;
}

ClusterResult
ClusterSimulator::run(const QueryTrace& trace, const RoutingSpec& spec) const
{
    const std::unique_ptr<RoutingPolicy> policy = makeRoutingPolicy(
        spec, cfg.sharding.has_value() ? &*cfg.sharding : nullptr);
    return run(trace, *policy);
}

} // namespace deeprecsys
