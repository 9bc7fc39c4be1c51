/**
 * @file
 * Multi-model colocation study: one consolidated heterogeneous tier
 * serving several Table-1 models concurrently versus N dedicated
 * per-model tiers.
 *
 * A datacenter recommendation fleet serves a zoo, not a model. Running
 * each model on its own tier buys isolation but strands capacity —
 * every tier is provisioned for its own peak — while consolidating
 * the mix onto one tier shares the core pools and lets the planner
 * size for the *blended* load. The cost of consolidation is
 * interference: the per-model FIFO queues share the machine's cores,
 * so an embedding-bound co-tenant's long gather requests sit ahead of
 * a compute-bound model's short requests and stretch its tail, even
 * though batches never mix models (MachineEngine only batch-splits
 * within one part).
 *
 * Two sections measure both sides of that trade:
 *
 *   - Provisioning: planCapacity sizes one consolidated tier for a
 *     three-model mix (DLRM-RMC2 40%, Wide&Deep 40%, NCF 20%) under
 *     each model's own Medium SLA — feasible only when *every*
 *     model's p99 meets its own target — against three dedicated
 *     tiers each sized for its model's share alone. The headline is
 *     machines-consolidated versus the dedicated sum, with per-model
 *     p99 at the consolidated plan reported per model.
 *
 *   - Interference: a fixed tier serving the embedding-bound RMC2
 *     next to the compute-bound Wide&Deep (50/50), versus the same
 *     tier serving the *identical* Wide&Deep query population alone
 *     (the colocated trace filtered to its WnD substream, arrivals
 *     and sizes untouched). The WnD p99 delta is the pure price of
 *     the co-tenant; the golden colocation_sweep.json pins it.
 *
 * Usage: colocation_sweep [--smoke] [out.json]
 * --smoke shrinks the traces (CI); the optional path writes the
 * result table as a JSON array (CI archives it as
 * BENCH_colocation.json). Output is deterministic and bitwise
 * identical at every DRS_THREADS value.
 *
 * Host-measured lines: see its entry in tools/outputs.json.
 */

#include <string>

#include "bench/bench_common.hh"
#include "cluster/capacity_planner.hh"
#include "cluster/model_mix.hh"

using namespace deeprecsys;

namespace {

/** The study's mix entries, batch-tuned like the cluster benches. */
ModelMixEntry
tunedEntry(ModelId id, double fraction)
{
    ModelMixEntry entry = makeMixEntry(id, fraction);
    entry.policy.perRequestBatch = 256;
    return entry;
}

} // namespace

int
main(int argc, char** argv)
{
    const bench::BenchArgs args =
        bench::parseBenchArgs(argc, argv, bench::SmokeFlag);
    const bool smoke = args.smoke;

    // One row per (scenario, model) cell of both sections; written as
    // the bench JSON for the serial-vs-parallel CI byte diff.
    TextTable results({"scenario", "machines", "model", "share",
                       "sla (ms)", "p99 (ms)"});

    // ---------------------------------------- consolidated vs dedicated
    const std::vector<ModelMixEntry> mix = {
        tunedEntry(ModelId::DlrmRmc2, 0.4),
        tunedEntry(ModelId::WideAndDeep, 0.4),
        tunedEntry(ModelId::Ncf, 0.2),
    };
    const double total_qps = 5000.0;
    double fleet_sla_ms = 0.0;
    for (const ModelMixEntry& entry : mix)
        fleet_sla_ms = std::max(fleet_sla_ms, entry.slaMs);

    printBanner(std::cout,
                "Capacity: one consolidated tier vs dedicated tiers (" +
                    TextTable::num(total_qps, 0) +
                    " total QPS, per-model Medium SLAs)");

    // The consolidated plan first, then one dedicated plan per model.
    // Each plan is an independent search, so they run in parallel.
    std::vector<CapacityPlanSpec> specs(1 + mix.size());
    specs[0].unitMachines = {colocatedMachine(mix, CpuPlatform::skylake())};
    specs[0].targetQps = total_qps;
    specs[0].slaMs = fleet_sla_ms;
    specs[0].modelMix = mix;
    for (size_t k = 0; k < mix.size(); k++) {
        CapacityPlanSpec& spec = specs[1 + k];
        ModelMixEntry alone = mix[k];
        alone.trafficFraction = 1.0;
        spec.unitMachines = {colocatedMachine({alone},
                                              CpuPlatform::skylake())};
        spec.targetQps = total_qps * mix[k].trafficFraction;
        spec.slaMs = mix[k].slaMs;
    }
    for (CapacityPlanSpec& spec : specs) {
        spec.routing.kind = RoutingKind::PowerOfTwoChoices;
        if (smoke) {
            spec.queriesPerMachine = 150;
            spec.minQueries = 1500;
        }
    }
    const std::vector<CapacityPlan> plans =
        bench::sweepMap(specs, [](const CapacityPlanSpec& spec) {
            return planCapacity(spec);
        });

    const CapacityPlan& consolidated = plans[0];
    drs_assert(consolidated.feasible,
               "consolidated plan infeasible — raise maxUnits");
    drs_assert(consolidated.atPlan.perModel.size() == mix.size(),
               "consolidated plan lost per-model books");

    size_t dedicated_total = 0;
    for (size_t k = 0; k < mix.size(); k++) {
        const CapacityPlan& plan = plans[1 + k];
        drs_assert(plan.feasible, "dedicated plan infeasible");
        dedicated_total += plan.machines;
        results.addRow({"dedicated", std::to_string(plan.machines),
                        modelName(mix[k].id),
                        TextTable::num(mix[k].trafficFraction, 2),
                        TextTable::num(mix[k].slaMs, 1),
                        TextTable::num(plan.tailMs(99), 2)});
    }
    for (size_t k = 0; k < mix.size(); k++) {
        const ModelStats& stats = consolidated.atPlan.perModel[k];
        drs_assert(mix[k].slaMs <= 0.0 || stats.p99Ms() <= mix[k].slaMs,
                   "consolidated plan violates a per-model SLA");
        results.addRow({"consolidated",
                        std::to_string(consolidated.machines),
                        modelName(mix[k].id),
                        TextTable::num(mix[k].trafficFraction, 2),
                        TextTable::num(mix[k].slaMs, 1),
                        TextTable::num(stats.p99Ms(), 2)});
    }

    TextTable capacity({"tier", "machines", "p99 checks"});
    capacity.addRow({"dedicated sum", std::to_string(dedicated_total),
                     "each model its own SLA"});
    capacity.addRow({"consolidated", std::to_string(consolidated.machines),
                     "every model its own SLA, one tier"});
    capacity.print(std::cout);
    drs_assert(consolidated.machines <= dedicated_total,
               "consolidation needed MORE machines than dedicated"
               " tiers — interference is overwhelming the blending"
               " gain at this operating point");
    std::cout << "\nThe consolidated tier serves all three models under"
                 " each one's own SLA with "
              << consolidated.machines << " machines vs "
              << dedicated_total << " across dedicated tiers"
              << (consolidated.machines < dedicated_total
                      ? ": blending the NCF trickle into the heavy"
                        " tiers' headroom and pooling the dedicated"
                        " tiers' rounding slack is the consolidation"
                        " saving"
                      : " (the dedicated rounding slack happens to be"
                        " zero at this trace length)")
              << ", and the per-model SLA feasibility check is what"
                 " keeps it honest - a plan only counts if no tenant's"
                 " tail is sacrificed for it.\n\n";

    // ------------------------------------------------- interference
    // Fixed tier size, identical Wide&Deep query population, with and
    // without the embedding-bound co-tenant: the WnD p99 delta is the
    // pure interference price of colocation on the batch scheduler.
    const std::vector<ModelMixEntry> pair = {
        tunedEntry(ModelId::DlrmRmc2, 0.5),
        tunedEntry(ModelId::WideAndDeep, 0.5),
    };
    const size_t tier_machines = 4;
    const double pair_qps = 2600.0;
    const size_t pair_queries = smoke ? 6000 : 24000;

    printBanner(std::cout,
                "Interference: RMC2 (embedding-bound) next to Wide&Deep"
                " (compute-bound), " +
                    std::to_string(tier_machines) + " machines, " +
                    TextTable::num(pair_qps, 0) + " QPS");

    LoadSpec load;
    load.arrivalSeed = 0xc07a0;
    load.sizeSeed = 0xc07a1;
    MixedTraceTemplate mixed(load, mixFractions(pair));
    mixed.ensure(pair_queries);
    const QueryTrace colocated_trace =
        mixed.materialize(pair_qps, pair_queries);

    ClusterConfig colocated_tier;
    for (size_t m = 0; m < tier_machines; m++)
        colocated_tier.machines.push_back(
            colocatedMachine(pair, CpuPlatform::skylake()));
    colocated_tier.modelMix = pair;
    RoutingSpec routing;
    routing.kind = RoutingKind::PowerOfTwoChoices;
    const ClusterResult colocated_run =
        ClusterSimulator(colocated_tier).run(colocated_trace, routing);

    // The dedicated baseline serves the colocated trace's own WnD
    // substream — same queries, same arrival instants — remapped to
    // model 0 on a WnD-only tier of the same size.
    QueryTrace wnd_trace;
    for (const Query& q : colocated_trace) {
        if (q.model != 1)
            continue;
        Query alone = q;
        alone.model = 0;
        wnd_trace.push_back(alone);
    }
    ClusterConfig wnd_tier;
    ModelMixEntry wnd_alone = pair[1];
    wnd_alone.trafficFraction = 1.0;
    for (size_t m = 0; m < tier_machines; m++)
        wnd_tier.machines.push_back(
            colocatedMachine({wnd_alone}, CpuPlatform::skylake()));
    const ClusterResult wnd_run =
        ClusterSimulator(wnd_tier).run(wnd_trace, routing);

    for (size_t k = 0; k < pair.size(); k++) {
        const ModelStats& stats = colocated_run.perModel[k];
        results.addRow({"colocated pair", std::to_string(tier_machines),
                        modelName(pair[k].id),
                        TextTable::num(pair[k].trafficFraction, 2),
                        TextTable::num(pair[k].slaMs, 1),
                        TextTable::num(stats.p99Ms(), 2)});
    }
    results.addRow({"wnd alone", std::to_string(tier_machines),
                    modelName(ModelId::WideAndDeep), "1.00",
                    TextTable::num(pair[1].slaMs, 1),
                    TextTable::num(wnd_run.p99Ms(), 2)});
    results.print(std::cout);

    const double wnd_colocated_p99 = colocated_run.perModel[1].p99Ms();
    const double wnd_alone_p99 = wnd_run.p99Ms();
    drs_assert(wnd_colocated_p99 >= wnd_alone_p99,
               "colocation *improved* WnD's p99 — the interference"
               " scenario is not biting");
    std::cout << "\nSame machines, same Wide&Deep queries: alone its"
                 " p99 is "
              << TextTable::num(wnd_alone_p99, 2)
              << " ms; with RMC2 colocated it is "
              << TextTable::num(wnd_colocated_p99, 2)
              << " ms. Batches never mix models, so the entire delta"
                 " is queueing interference - RMC2's long embedding"
                 " gathers occupy the shared cores and Wide&Deep's"
                 " short dense requests wait behind them. That tail"
                 " tax, against the machine savings above, is the"
                 " colocation trade.\n";

    bench::writeTableJson(args.jsonPath, results);
    return 0;
}
