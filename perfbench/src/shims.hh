/**
 * @file
 * Transparent timing shims for the two policy interfaces the cluster
 * drivers call per decision. Each forwards every call to the wrapped
 * policy unchanged and records one span per decision, so a run with a
 * shim is bit-identical to the run without it (fleet_day checks the
 * digests).
 *
 * Only the static driver (ClusterSimulator::run) takes its router
 * from the caller. The elastic driver builds its own router from a
 * RoutingSpec, so elastic routing stays inside the elastic driver's
 * self time; only its ScalingPolicy can be shimmed.
 */

#ifndef PERFBENCH_SHIMS_HH
#define PERFBENCH_SHIMS_HH

#include "bench.hh"
#include "cluster/autoscaler.hh"
#include "cluster/routing_policy.hh"

namespace perfbench {

/** RoutingPolicy shim: one span per routeParts call, id = query id. */
class TimedRouting final : public deeprecsys::RoutingPolicy
{
  public:
    TimedRouting(deeprecsys::RoutingPolicy& inner, Tracer& tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    size_t
    route(const deeprecsys::Query& query,
          const deeprecsys::ClusterView& view) override
    {
        return inner_.route(query, view);
    }

    std::vector<deeprecsys::ShardTarget>
    routeParts(const deeprecsys::Query& query,
               const deeprecsys::ClusterView& view) override
    {
        std::vector<deeprecsys::ShardTarget> plan;
        {
            SpanScope span(&tracer_, SpanKind::RouteParts, query.id);
            plan = inner_.routeParts(query, view);
        }
        parts_ += plan.size();
        if (plan.empty())
            emptyPlans_++;
        return plan;
    }

    deeprecsys::RoutingKind kind() const override { return inner_.kind(); }

    void
    attachObserver(deeprecsys::obs::RunObserver* observer) override
    {
        inner_.attachObserver(observer);
    }

    uint64_t parts() const { return parts_; }
    uint64_t emptyPlans() const { return emptyPlans_; }

  private:
    deeprecsys::RoutingPolicy& inner_;
    Tracer& tracer_;
    uint64_t parts_ = 0;
    uint64_t emptyPlans_ = 0;
};

/** ScalingPolicy shim: one span per targetMachines call. */
class TimedScaling final : public deeprecsys::ScalingPolicy
{
  public:
    TimedScaling(deeprecsys::ScalingPolicy& inner, Tracer& tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    size_t
    targetMachines(const deeprecsys::ScalingSignals& signals) override
    {
        SpanScope span(&tracer_, SpanKind::TargetMachines, ticks_++);
        return inner_.targetMachines(signals);
    }

    deeprecsys::ScalingPolicyKind
    kind() const override
    {
        return inner_.kind();
    }

  private:
    deeprecsys::ScalingPolicy& inner_;
    Tracer& tracer_;
    uint64_t ticks_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SHIMS_HH
