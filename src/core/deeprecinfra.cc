#include "deeprecinfra.hh"

namespace deeprecsys {

namespace {

PowerModel
makePower(const InfraConfig& cfg)
{
    if (cfg.attachGpu)
        return PowerModel(cfg.platform, cfg.gpu);
    return PowerModel(cfg.platform);
}

} // namespace

DeepRecInfra::DeepRecInfra(const InfraConfig& config)
    : cfg(config), profile_(ModelProfile::forModel(config.model)),
      cpuCost(profile_, config.platform), power(makePower(config))
{
    if (cfg.attachGpu)
        gpuCost.emplace(profile_, cfg.gpu);
}

double
DeepRecInfra::slaMs(SlaTier tier) const
{
    return slaTargetMs(modelConfig(cfg.model), tier);
}

SimConfig
DeepRecInfra::simConfig(const SchedulerPolicy& policy) const
{
    return SimConfig{cpuCost, gpuCost, policy};
}

QpsSearchSpec
DeepRecInfra::searchSpec(double sla_ms) const
{
    return {.slaMs = sla_ms, .numQueries = cfg.numQueries,
            .load = {.sizes = cfg.sizeDist, .arrivalSeed = cfg.seed,
                     .sizeSeed = cfg.seed + 1}};
}

QpsSearchResult
DeepRecInfra::maxQps(const SchedulerPolicy& policy, double sla_ms) const
{
    return findMaxQps(simConfig(policy), searchSpec(sla_ms));
}

double
DeepRecInfra::qpsPerWatt(const QpsSearchResult& at_max) const
{
    return power.qpsPerWatt(at_max.maxQps,
                            at_max.atMax.gpuUtilization);
}

} // namespace deeprecsys
