/**
 * @file
 * Analytical CPU service-time model for one inference request.
 *
 * The model captures the first-order effects the paper's scheduler
 * exploits (Sections IV and VI-A):
 *
 *  - FC work is compute bound; SIMD efficiency grows with batch size
 *    and saturates, with wider SIMD (AVX-512) needing larger batches
 *    to reach peak;
 *  - embedding work is DRAM bound; random-gather bandwidth improves
 *    with batch (more outstanding misses) and saturates late, which
 *    rewards embedding-heavy models with large batches;
 *  - attention/GRU work has step-serial dependences, so its
 *    efficiency saturates at small batch (little gained past ~tens);
 *  - co-running cores contend: inclusive LLCs (Broadwell) degrade
 *    faster with active cores than exclusive LLCs (Skylake), and all
 *    cores share DRAM bandwidth;
 *  - each request pays a fixed dispatch overhead, penalizing a query
 *    split into many tiny requests.
 */

#ifndef DRS_COSTMODEL_CPU_COST_HH
#define DRS_COSTMODEL_CPU_COST_HH

#include <cstddef>

#include "costmodel/model_profile.hh"
#include "costmodel/platform.hh"

namespace deeprecsys {

/** Calibration constants of the CPU cost model. */
struct CpuCostParams
{
    /// Fraction of peak FLOPs a perfectly batched GEMM achieves.
    double fcPeakEfficiency = 0.50;
    /// Batch at which SIMD efficiency reaches half of saturation,
    /// scaled by (simdFloats / 8): wider SIMD saturates later.
    double fcHalfBatchPerLane = 3.0;
    /// Small-batch efficiency floor as a fraction of saturation
    /// (GEMV still streams weights at a nontrivial rate).
    double fcEffFloor = 0.12;
    /// Random-gather bandwidth of one core at saturation (GB/s).
    double gatherCoreBwGBs = 6.0;
    /// Batch at which gather bandwidth reaches half of saturation.
    double gatherHalfBatch = 96.0;
    /// Small-batch floor of gather efficiency.
    double gatherEffFloor = 0.05;
    /// Fraction of random-gather chip bandwidth usable when all cores
    /// stream embeddings together.
    double gatherChipFraction = 0.50;
    /// Fraction of peak FLOPs for attention kernels (batched GEMMs
    /// over behavior sequences; slightly below plain FC).
    double attnPeakEfficiency = 0.40;
    /// Fraction of peak FLOPs for recurrent kernels (step-serial).
    double recPeakEfficiency = 0.12;
    /// Batch at which recurrent-kernel efficiency half-saturates
    /// (small: these kernels stop improving early).
    double recHalfBatch = 2.0;
    /// LLC-contention slope for inclusive hierarchies.
    double inclusiveContention = 0.85;
    /// LLC-contention slope for exclusive hierarchies.
    double exclusiveContention = 0.20;
    /// Small requests re-stream MLP weights through the LLC on every
    /// dispatch; under contention this thrash multiplies the penalty.
    /// Weight of that effect for inclusive hierarchies...
    double inclusiveThrashWeight = 2.0;
    /// ...and for exclusive hierarchies (victim caching retains
    /// weights far better).
    double exclusiveThrashWeight = 0.25;
    /// Batch at which the thrash penalty halves.
    double thrashHalfBatch = 128.0;
    /// Fixed per-request dispatch/framework overhead (seconds).
    double requestOverheadS = 150e-6;
    /// Per-sample input marshalling overhead (seconds).
    double perSampleOverheadS = 1.2e-6;
};

/** Service-time model for (model, platform) pairs. */
class CpuCostModel
{
  public:
    CpuCostModel(const ModelProfile& profile, const CpuPlatform& platform,
                 const CpuCostParams& params = CpuCostParams{});

    /**
     * Service seconds for one request of @p batch samples while
     * @p active_cores cores (including this one) are busy.
     */
    double requestSeconds(size_t batch, size_t active_cores) const;

    /**
     * Service seconds for one request of a fan-out embedding part,
     * when the model's embedding tables are spread over machines: the
     * fixed dispatch overhead plus @p emb_fraction (in [0, 1]) of the
     * embedding gather work.
     */
    double embeddingShareSeconds(size_t batch, size_t active_cores,
                                 double emb_fraction) const;

    /**
     * Service seconds for one request of the leader's dense phase
     * once the pooled embeddings have joined: the fixed dispatch
     * overhead plus the per-sample marshalling and the full
     * FC/sequence compute. An embedding share at fraction 1 plus a
     * dense phase is a whole request plus one more overhead.
     */
    double densePhaseSeconds(size_t batch, size_t active_cores) const;

    /** FC component of the service time. */
    double fcSeconds(size_t batch, size_t active_cores) const;

    /** Embedding component of the service time. */
    double embeddingSeconds(size_t batch, size_t active_cores) const;

    /** Attention component of the service time. */
    double attentionSeconds(size_t batch, size_t active_cores) const;

    /** Recurrent (GRU) component of the service time. */
    double recurrentSeconds(size_t batch) const;

    /** Attention + recurrent component of the service time. */
    double sequenceSeconds(size_t batch, size_t active_cores) const;

    /**
     * Slowdown multiplier from LLC contention at a given number of
     * active cores (1.0 for a single active core). Smaller request
     * batches raise the penalty: every dispatch re-streams the model
     * weights, which thrashes an inclusive LLC under sharing.
     */
    double contentionFactor(size_t active_cores, size_t batch) const;

    const ModelProfile& profile() const { return profile_; }
    const CpuPlatform& platform() const { return platform_; }
    const CpuCostParams& params() const { return params_; }

  private:
    ModelProfile profile_;
    CpuPlatform platform_;
    CpuCostParams params_;
};

} // namespace deeprecsys

#endif // DRS_COSTMODEL_CPU_COST_HH
