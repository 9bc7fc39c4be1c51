/**
 * @file
 * Tests for the cluster capacity planner.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "bench/bench_common.hh"
#include "cluster/capacity_planner.hh"
#include "cluster/model_mix.hh"

namespace deeprecsys {
namespace {

CapacityPlanSpec
baseSpec(double target_qps)
{
    CapacityPlanSpec spec;
    spec.unitMachines = {bench::cpuMachine(256)};
    spec.targetQps = target_qps;
    spec.slaMs = 100.0;
    spec.percentile = 99.0;
    spec.queriesPerMachine = 250;
    spec.minQueries = 1500;
    spec.maxUnits = 64;
    return spec;
}

TEST(CapacityPlanner, PlanMeetsSla)
{
    const CapacityPlan plan = planCapacity(baseSpec(6000.0));
    ASSERT_TRUE(plan.feasible);
    EXPECT_GE(plan.units, 1u);
    EXPECT_EQ(plan.machines, plan.units);
    EXPECT_LE(plan.tailMs(99.0), 100.0);
}

TEST(CapacityPlanner, PlanIsMinimal)
{
    const CapacityPlanSpec spec = baseSpec(6000.0);
    const CapacityPlan plan = planCapacity(spec);
    ASSERT_TRUE(plan.feasible);
    ASSERT_GT(plan.units, 1u);

    // One unit fewer must violate the SLA (the planner is
    // deterministic, so this re-evaluation reproduces its probe).
    ClusterConfig cluster;
    for (size_t u = 0; u + 1 < plan.units; u++)
        cluster.machines.push_back(spec.unitMachines.front());
    ClusterQpsSpec eval;
    eval.slaMs = spec.slaMs;
    eval.routing = spec.routing;
    eval.numQueries = std::max(
        spec.minQueries,
        spec.queriesPerMachine * cluster.machines.size());
    const ClusterResult r =
        evaluateClusterAtQps(cluster, eval, spec.targetQps);
    EXPECT_GT(r.tailMs(spec.percentile), spec.slaMs);
}

TEST(CapacityPlanner, HigherTargetNeedsMoreMachines)
{
    const CapacityPlan low = planCapacity(baseSpec(4000.0));
    const CapacityPlan high = planCapacity(baseSpec(16000.0));
    ASSERT_TRUE(low.feasible);
    ASSERT_TRUE(high.feasible);
    EXPECT_GT(high.machines, low.machines);
}

TEST(CapacityPlanner, ImpossibleSlaIsInfeasible)
{
    CapacityPlanSpec spec = baseSpec(1000.0);
    spec.slaMs = 0.01;    // below any single-request service time
    spec.maxUnits = 4;
    const CapacityPlan plan = planCapacity(spec);
    EXPECT_FALSE(plan.feasible);
    EXPECT_EQ(plan.units, 0u);
}

TEST(CapacityPlanner, MixedUnitScalesIntegrally)
{
    SimConfig gpu_machine = bench::cpuMachine(256);
    gpu_machine.bindings[0].gpu = GpuCostModel(
        ModelProfile::forModel(ModelId::DlrmRmc1), GpuPlatform::gtx1080Ti());
    gpu_machine.bindings[0].policy.gpuEnabled = true;
    gpu_machine.bindings[0].policy.gpuQueryThreshold = 64;

    CapacityPlanSpec spec = baseSpec(8000.0);
    spec.unitMachines = {bench::cpuMachine(256), bench::cpuMachine(256),
                         gpu_machine};
    spec.routing.kind = RoutingKind::SizeAware;
    spec.routing.sizeThreshold = 64;
    const CapacityPlan plan = planCapacity(spec);
    ASSERT_TRUE(plan.feasible);
    EXPECT_EQ(plan.machines, plan.units * 3);
    EXPECT_LE(plan.tailMs(99.0), 100.0);
}

TEST(CapacityPlanner, DeterministicAcrossCalls)
{
    const CapacityPlan a = planCapacity(baseSpec(9000.0));
    const CapacityPlan b = planCapacity(baseSpec(9000.0));
    EXPECT_EQ(a.units, b.units);
    EXPECT_DOUBLE_EQ(a.tailMs(99.0), b.tailMs(99.0));
}

// A bad spec is a user error: it exits with status 1, not an abort.

TEST(CapacityPlannerDeath, ZeroTargetRateIsAValidatedError)
{
    EXPECT_EXIT((void)planCapacity(baseSpec(0.0)),
                ::testing::ExitedWithCode(1), "target rate must be positive");
}

TEST(CapacityPlannerDeath, EmptyMachineMixIsAValidatedError)
{
    CapacityPlanSpec spec = baseSpec(6000.0);
    spec.unitMachines.clear();
    EXPECT_EXIT((void)planCapacity(spec), ::testing::ExitedWithCode(1),
                "plan needs a machine mix");
}

TEST(CapacityPlannerDeath, NonPositiveSlaIsAValidatedError)
{
    CapacityPlanSpec spec = baseSpec(6000.0);
    spec.slaMs = 0.0;
    EXPECT_EXIT((void)planCapacity(spec), ::testing::ExitedWithCode(1),
                "SLA target must be positive");
}

TEST(CapacityPlannerDeath, OutOfRangePercentileIsAValidatedError)
{
    CapacityPlanSpec spec = baseSpec(6000.0);
    spec.percentile = -1.0;
    EXPECT_EXIT((void)planCapacity(spec), ::testing::ExitedWithCode(1),
                "SLA percentile -1 is outside \\[0, 100\\]");
}

TEST(CapacityPlannerDeath, UnitMachineMissingAMixBindingIsAValidatedError)
{
    const std::vector<ModelMixEntry> mix = {
        makeMixEntry(ModelId::DlrmRmc2, 0.5),
        makeMixEntry(ModelId::WideAndDeep, 0.5),
    };
    CapacityPlanSpec spec = baseSpec(4000.0);
    spec.unitMachines = {colocatedMachine({mix[0]}, CpuPlatform::skylake()),
                         colocatedMachine(mix, CpuPlatform::skylake())};
    spec.modelMix = mix;
    EXPECT_EXIT((void)planCapacity(spec), ::testing::ExitedWithCode(1),
                "cluster: machine 0 binds 1 of the mix's 2 models");
}

TEST(ClusterQpsSearchDeath, NonPositiveSlaIsAValidatedError)
{
    ClusterConfig cluster;
    cluster.machines = {bench::cpuMachine(256)};
    ClusterQpsSpec spec;
    spec.slaMs = -1.0;
    EXPECT_EXIT((void)findClusterMaxQps(cluster, spec),
                ::testing::ExitedWithCode(1), "SLA target must be positive");
}

TEST(ClusterQpsSearchDeath, NonPositiveOrNanRateIsAValidatedError)
{
    ClusterConfig cluster;
    cluster.machines = {bench::cpuMachine(256)};
    const ClusterQpsSpec spec;
    EXPECT_EXIT((void)evaluateClusterAtQps(cluster, spec, 0.0),
                ::testing::ExitedWithCode(1),
                "arrival rate must be positive, got 0 q/s");
    EXPECT_EXIT((void)evaluateClusterAtQps(cluster, spec, -100.0),
                ::testing::ExitedWithCode(1),
                "arrival rate must be positive, got -100 q/s");
    EXPECT_EXIT((void)evaluateClusterAtQps(cluster, spec, std::nan("")),
                ::testing::ExitedWithCode(1),
                "arrival rate must be positive, got nan q/s");
}

} // namespace
} // namespace deeprecsys
