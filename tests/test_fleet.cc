/**
 * @file
 * Tests for the datacenter fleet simulator (Figures 7 and 13 substrate).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/fleet.hh"

namespace deeprecsys {
namespace {

/** Population standard deviation of the recorded samples. */
double
stddevOf(const SampleStats& s)
{
    double acc = 0.0;
    for (double v : s.raw())
        acc += (v - s.mean()) * (v - s.mean());
    return std::sqrt(acc / static_cast<double>(s.count()));
}

SimConfig
baseConfig(size_t batch = 256)
{
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc1);
    SchedulerPolicy policy;
    policy.perRequestBatch = batch;
    return SimConfig{CpuCostModel(profile, CpuPlatform::skylake()),
                     std::nullopt, policy};
}

FleetConfig
smallFleet()
{
    FleetConfig cfg;
    cfg.numMachines = 24;
    cfg.perMachineQps = 400.0;
    cfg.queriesPerWindow = 400;
    cfg.numWindows = 1;
    return cfg;
}

TEST(Fleet, PerMachineResultsMatchCount)
{
    FleetSimulator fleet(baseConfig(), smallFleet());
    const FleetResult r = fleet.run();
    ASSERT_EQ(r.perMachine.size(), 24u);
    // The window's 24 x 400 queries are dealt round-robin, so every
    // machine serves exactly 400, less its 5% (20-query) warm-up.
    for (const auto& m : r.perMachine)
        EXPECT_EQ(m.count(), 380u);
}

TEST(Fleet, PooledLatencyAggregatesMachines)
{
    FleetSimulator fleet(baseConfig(), smallFleet());
    const FleetResult r = fleet.run();
    size_t total = 0;
    for (const auto& m : r.perMachine)
        total += m.count();
    EXPECT_EQ(r.fleetLatency.count(), total);
}

TEST(Fleet, SubsamplePoolsRequestedMachines)
{
    FleetSimulator fleet(baseConfig(), smallFleet());
    const FleetResult r = fleet.run();
    const SampleStats sub = r.subsample({0, 1, 2});
    EXPECT_EQ(sub.count(), r.perMachine[0].count() +
                               r.perMachine[1].count() +
                               r.perMachine[2].count());
}

TEST(Fleet, SubsampleTracksFleetTail)
{
    // Figure 7: a handful of machines reproduces the datacenter tail
    // to within ~10%.
    FleetConfig cfg = smallFleet();
    cfg.numMachines = 40;
    FleetSimulator fleet(baseConfig(), cfg);
    const FleetResult r = fleet.run();
    const SampleStats sub = r.subsample({0, 1, 2, 3});
    const double fleet_p95 = r.fleetLatency.percentile(95);
    const double sub_p95 = sub.percentile(95);
    EXPECT_NEAR(sub_p95 / fleet_p95, 1.0, 0.25);
}

TEST(Fleet, DeterministicGivenSeed)
{
    FleetSimulator a(baseConfig(), smallFleet());
    FleetSimulator b(baseConfig(), smallFleet());
    EXPECT_DOUBLE_EQ(a.run().fleetLatency.percentile(95),
                     b.run().fleetLatency.percentile(95));
}

TEST(Fleet, SeedChangesOutcome)
{
    FleetConfig cfg = smallFleet();
    FleetSimulator a(baseConfig(), cfg);
    cfg.seed = 999;
    FleetSimulator b(baseConfig(), cfg);
    EXPECT_NE(a.run().fleetLatency.percentile(95),
              b.run().fleetLatency.percentile(95));
}

TEST(Fleet, HeterogeneityWidensDistribution)
{
    FleetConfig uniform = smallFleet();
    uniform.speedSigma = 0.0;
    uniform.interferenceProb = 0.0;
    FleetConfig varied = smallFleet();
    varied.speedSigma = 0.15;
    varied.interferenceProb = 0.4;
    varied.interferenceSlowdown = 1.6;
    FleetSimulator a(baseConfig(), uniform);
    FleetSimulator b(baseConfig(), varied);
    const FleetResult ra = a.run();
    const FleetResult rb = b.run();
    EXPECT_GT(stddevOf(rb.fleetLatency), stddevOf(ra.fleetLatency));
}

TEST(Fleet, DiurnalPeaksRaiseTail)
{
    FleetConfig flat = smallFleet();
    flat.numMachines = 8;
    flat.numWindows = 6;
    flat.diurnalPeakToTrough = 1.0;
    flat.perMachineQps = 900.0;
    FleetConfig diurnal = flat;
    diurnal.diurnalPeakToTrough = 2.5;
    FleetSimulator a(baseConfig(), flat);
    FleetSimulator b(baseConfig(), diurnal);
    // Peak-hour overload dominates the pooled tail.
    EXPECT_GT(b.run().fleetLatency.percentile(99),
              a.run().fleetLatency.percentile(99));
}

// A bad fleet shape is a user error: it exits with status 1
// (drs_fatal), it does not abort like a broken invariant.

TEST(FleetDeath, NoMachinesIsAConfigError)
{
    FleetConfig cfg = smallFleet();
    cfg.numMachines = 0;
    EXPECT_EXIT((void)FleetSimulator(baseConfig(), cfg),
                ::testing::ExitedWithCode(1), "fleet needs machines");
}

TEST(FleetDeath, NoWindowsIsAConfigError)
{
    FleetConfig cfg = smallFleet();
    cfg.numWindows = 0;
    EXPECT_EXIT((void)FleetSimulator(baseConfig(), cfg),
                ::testing::ExitedWithCode(1),
                "fleet needs at least one window");
}

} // namespace
} // namespace deeprecsys
