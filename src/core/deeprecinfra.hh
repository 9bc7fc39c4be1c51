/**
 * @file
 * DeepRecInfra: the end-to-end at-scale evaluation bundle (Figure 8).
 *
 * Combines (1) a model from the eight-model suite, (2) its SLA
 * tail-latency target, and (3) the real-time query serving model
 * (Poisson arrivals, production size distribution) over a hardware
 * platform, and answers the central question: what throughput (QPS)
 * can a scheduler policy sustain under the tail-latency target?
 */

#ifndef DRS_CORE_DEEPRECINFRA_HH
#define DRS_CORE_DEEPRECINFRA_HH

#include <optional>

#include "costmodel/cpu_cost.hh"
#include "costmodel/gpu_cost.hh"
#include "costmodel/power.hh"
#include "models/model_config.hh"
#include "sim/qps_search.hh"
#include "sim/serving_sim.hh"

namespace deeprecsys {

/** Everything defining one at-scale experiment context. */
struct InfraConfig
{
    ModelId model = ModelId::DlrmRmc1;
    CpuPlatform platform = CpuPlatform::skylake();
    bool attachGpu = false;
    GpuPlatform gpu = GpuPlatform::gtx1080Ti();

    SizeDistKind sizeDist = SizeDistKind::Production;
    uint64_t seed = 42;

    /** Queries per simulator evaluation (trace length). */
    size_t numQueries = 2500;

    bool operator==(const InfraConfig&) const = default;
};

/** The evaluation harness. */
class DeepRecInfra
{
  public:
    explicit DeepRecInfra(const InfraConfig& config);

    const InfraConfig& config() const { return cfg; }
    const ModelProfile& profile() const { return profile_; }
    const CpuCostModel& cpuModel() const { return cpuCost; }
    const GpuCostModel* gpuModel() const
    {
        return gpuCost ? &*gpuCost : nullptr;
    }

    /** SLA target in ms at a tier for this model. */
    double slaMs(SlaTier tier) const;

    /** Simulator configuration for a policy. */
    SimConfig simConfig(const SchedulerPolicy& policy) const;

    /** The max-QPS search at an SLA (ms): this context's trace length,
     *  size distribution and seeds, on the p95 tail. */
    QpsSearchSpec searchSpec(double sla_ms) const;

    /** Latency-bounded throughput of a policy at an SLA (ms) on the
     *  p95 tail (QpsSearchSpec's default, the paper's metric). */
    QpsSearchResult maxQps(const SchedulerPolicy& policy,
                           double sla_ms) const;

    /**
     * QPS/Watt of a policy evaluated at its max sustainable rate;
     * GPU power scales with measured accelerator utilization.
     */
    double qpsPerWatt(const QpsSearchResult& at_max) const;

  private:
    InfraConfig cfg;
    ModelProfile profile_;
    CpuCostModel cpuCost;
    std::optional<GpuCostModel> gpuCost;
    PowerModel power;
};

} // namespace deeprecsys

#endif // DRS_CORE_DEEPRECINFRA_HH
