#include "cpu_cost.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace deeprecsys {

namespace {

/**
 * Saturating efficiency curve with a small-batch floor:
 * eff(b) = peak * (b + floor*half) / (b + half).
 */
double
saturating(double batch, double half, double floor_frac, double peak)
{
    return peak * (batch + floor_frac * half) / (batch + half);
}

} // namespace

CpuCostModel::CpuCostModel(const ModelProfile& profile,
                           const CpuPlatform& platform,
                           const CpuCostParams& params)
    : profile_(profile), platform_(platform), params_(params)
{
}

double
CpuCostModel::contentionFactor(size_t active_cores, size_t batch) const
{
    drs_assert(active_cores >= 1, "at least one core must be active");
    const double slope = platform_.inclusiveLlc
        ? params_.inclusiveContention : params_.exclusiveContention;
    const double thrash_w = platform_.inclusiveLlc
        ? params_.inclusiveThrashWeight : params_.exclusiveThrashWeight;
    const double share = platform_.cores > 1
        ? static_cast<double>(active_cores - 1) /
          static_cast<double>(platform_.cores - 1)
        : 0.0;
    // Request-parallel configurations (small batches) dispatch more
    // often and re-stream weights each time, amplifying contention.
    const double thrash = 1.0 + thrash_w * params_.thrashHalfBatch /
        (static_cast<double>(batch) + params_.thrashHalfBatch);
    return 1.0 + slope * share * thrash;
}

double
CpuCostModel::fcSeconds(size_t batch, size_t active_cores) const
{
    if (profile_.denseFlopsPerSample <= 0.0)
        return 0.0;
    const double b = static_cast<double>(batch);
    // Batch-dependent SIMD/GEMM efficiency: wider SIMD units need
    // proportionally larger batches to fill their lanes.
    const double half = params_.fcHalfBatchPerLane *
                        static_cast<double>(platform_.simdFloats);
    const double eff = saturating(b, half, params_.fcEffFloor,
                                  params_.fcPeakEfficiency);
    const double rate = platform_.peakCoreFlops() * eff;
    return profile_.denseFlopsPerSample * b / rate *
           contentionFactor(active_cores, batch);
}

double
CpuCostModel::embeddingSeconds(size_t batch, size_t active_cores) const
{
    if (profile_.embBytesPerSample <= 0.0)
        return 0.0;
    const double b = static_cast<double>(batch);
    // Short gather bursts waste DRAM bandwidth (row-buffer misses,
    // partial lines, shallow miss queues); efficiency grows with
    // batch regardless of how the chip bandwidth is shared.
    const double eff = saturating(b, params_.gatherHalfBatch,
                                  params_.gatherEffFloor, 1.0);
    const double core_cap = params_.gatherCoreBwGBs * 1e9;
    const double chip_share = platform_.dramBwGBs * 1e9 *
                              params_.gatherChipFraction /
                              static_cast<double>(active_cores);
    const double bw = std::min(core_cap, chip_share) * eff;
    return profile_.embBytesPerSample * b / bw;
}

double
CpuCostModel::attentionSeconds(size_t batch, size_t active_cores) const
{
    if (profile_.attnFlopsPerSample <= 0.0)
        return 0.0;
    const double b = static_cast<double>(batch);
    // The attention scorer batches seqLen pairs per sample into one
    // GEMM, so efficiency follows the FC curve (slightly derated).
    const double half = params_.fcHalfBatchPerLane *
                        static_cast<double>(platform_.simdFloats);
    const double eff = saturating(b, half, params_.fcEffFloor,
                                  params_.attnPeakEfficiency);
    const double rate = platform_.peakCoreFlops() * eff;
    return profile_.attnFlopsPerSample * b / rate *
           contentionFactor(active_cores, batch);
}

double
CpuCostModel::recurrentSeconds(size_t batch) const
{
    if (profile_.recFlopsPerSample <= 0.0)
        return 0.0;
    const double b = static_cast<double>(batch);
    // Step-serial dependences keep efficiency low and nearly flat in
    // batch: little is gained by batching recurrent models.
    const double eff = saturating(b, params_.recHalfBatch, 0.5,
                                  params_.recPeakEfficiency);
    const double rate = platform_.peakCoreFlops() * eff;
    return profile_.recFlopsPerSample * b / rate;
}

double
CpuCostModel::sequenceSeconds(size_t batch, size_t active_cores) const
{
    return attentionSeconds(batch, active_cores) + recurrentSeconds(batch);
}

double
CpuCostModel::requestSeconds(size_t batch, size_t active_cores) const
{
    drs_assert(batch >= 1, "request batch must be >= 1");
    const size_t a = std::min(std::max<size_t>(active_cores, 1),
                              platform_.cores);
    return params_.requestOverheadS +
           params_.perSampleOverheadS * static_cast<double>(batch) +
           fcSeconds(batch, a) + embeddingSeconds(batch, a) +
           sequenceSeconds(batch, a);
}

double
CpuCostModel::embeddingShareSeconds(size_t batch, size_t active_cores,
                                    double emb_fraction) const
{
    drs_assert(batch >= 1, "request batch must be >= 1");
    drs_assert(emb_fraction >= 0.0 && emb_fraction <= 1.0,
               "embedding fraction must be in [0, 1]");
    const size_t a = std::min(std::max<size_t>(active_cores, 1),
                              platform_.cores);
    return params_.requestOverheadS +
           emb_fraction * embeddingSeconds(batch, a);
}

double
CpuCostModel::densePhaseSeconds(size_t batch, size_t active_cores) const
{
    drs_assert(batch >= 1, "request batch must be >= 1");
    const size_t a = std::min(std::max<size_t>(active_cores, 1),
                              platform_.cores);
    return params_.requestOverheadS +
           (params_.perSampleOverheadS * static_cast<double>(batch) +
            fcSeconds(batch, a) + sequenceSeconds(batch, a));
}

} // namespace deeprecsys
