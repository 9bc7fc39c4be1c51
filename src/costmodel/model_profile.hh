/**
 * @file
 * Per-model resource profile: the FLOP and byte counts the analytical
 * cost model consumes. Derived from a (tiny-scale) materialized
 * RecModel so the arithmetic stays consistent with the real kernels.
 */

#ifndef DRS_COSTMODEL_MODEL_PROFILE_HH
#define DRS_COSTMODEL_MODEL_PROFILE_HH

#include <cstdint>
#include <string>

#include "models/model_config.hh"

namespace deeprecsys {

class RecModel;

/** Resource counts for one scored sample of one model. */
struct ModelProfile
{
    ModelId id;
    std::string name;

    double denseFlopsPerSample = 0;  ///< FC MACs*2 (dense + predictors)
    double attnFlopsPerSample = 0;   ///< attention flops (batch-parallel)
    double recFlopsPerSample = 0;    ///< GRU flops (step-serial)
    double seqFlopsPerSample = 0;    ///< attention + GRU flops
    double embBytesPerSample = 0;    ///< embedding rows gathered (bytes)
    double denseParamBytes = 0;      ///< MLP weights (read per batch)
    double inputBytesPerSample = 0;  ///< host->device transfer bytes
    double logicalEmbeddingBytes = 0;///< full embedding storage

    /** Extract the profile from a materialized model. */
    static ModelProfile fromModel(const RecModel& model);

    /**
     * Profile for a model id, returned by copy. Each id's profile is
     * built once per process, thread-safely, by materializing the
     * model at tiny scale (256 physical rows/table), because only the
     * *counts* matter here and they depend on the id alone.
     */
    static ModelProfile forModel(ModelId id);

    /** Total flops for a batch of b samples. */
    double
    flops(double b) const
    {
        return (denseFlopsPerSample + seqFlopsPerSample) * b;
    }
};

} // namespace deeprecsys

#endif // DRS_COSTMODEL_MODEL_PROFILE_HH
