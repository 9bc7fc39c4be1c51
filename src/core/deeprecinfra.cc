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

QpsSearchResult
DeepRecInfra::maxQps(const SchedulerPolicy& policy, double sla_ms) const
{
    QpsSearchSpec spec;
    spec.slaMs = sla_ms;
    spec.numQueries = cfg.numQueries;
    spec.load.sizes = cfg.sizeDist;
    spec.load.arrivalSeed = cfg.seed;
    spec.load.sizeSeed = cfg.seed + 1;
    return findMaxQps(simConfig(policy), spec);
}

double
DeepRecInfra::qpsPerWatt(const QpsSearchResult& at_max) const
{
    return power.qpsPerWatt(at_max.maxQps,
                            at_max.atMax.gpuUtilization);
}

} // namespace deeprecsys
