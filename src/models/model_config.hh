/**
 * @file
 * Configurations of the eight industry-representative recommendation
 * models (paper Table I) expressed over the generalized architecture
 * of Figure 2.
 *
 * Table I gives some parameters as ranges ("Tens", "<= 40", "~ 80");
 * the concrete values chosen here are representative instantiations
 * and are recorded in DESIGN.md. SLA targets follow Table II.
 */

#ifndef DRS_MODELS_MODEL_CONFIG_HH
#define DRS_MODELS_MODEL_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nn/embedding.hh"
#include "nn/op_stats.hh"

namespace deeprecsys {

/** The eight models of the DeepRecInfra suite. */
enum class ModelId {
    Ncf,
    WideAndDeep,
    MtWideAndDeep,
    DlrmRmc1,
    DlrmRmc2,
    DlrmRmc3,
    Din,
    Dien,
};

/** How dense and pooled-sparse outputs are combined (Figure 2). */
enum class InteractionKind {
    Concat,         ///< concatenate feature vectors
    GmfConcat,      ///< NCF: GMF elementwise product + concat MLP path
};

/** Full parameterization of one recommendation model. */
struct ModelConfig
{
    ModelId id;
    std::string name;           ///< e.g. "DLRM-RMC1"
    std::string company;        ///< publishing company (Table I)
    std::string domain;         ///< use-case domain (Table I)

    // --- dense feature path ---
    size_t denseInputDim = 0;   ///< continuous input width (0 = none)
    /// Hidden widths of the Dense-FC stack (empty = features bypass it)
    std::vector<size_t> denseFcDims;

    // --- sparse feature path ---
    size_t numTables = 0;       ///< regular embedding tables
    uint64_t tableRows = 0;     ///< logical rows per regular table
    size_t embeddingDim = 0;    ///< latent dimension
    size_t lookupsPerTable = 1; ///< multi-hot lookups per sample
    Pooling pooling = Pooling::Sum;

    // --- attention / recurrent extensions (DIN / DIEN) ---
    bool useAttention = false;  ///< DIN local activation unit
    bool useRecurrent = false;  ///< DIEN attention-gated GRU
    uint64_t behaviorTableRows = 0; ///< logical rows of behavior table
    size_t seqLen = 0;          ///< behavior sequence length
    size_t attentionHidden = 0; ///< scorer hidden width
    size_t gruHidden = 0;       ///< GRU hidden width

    // --- prediction ---
    InteractionKind interaction = InteractionKind::Concat;
    /// Hidden widths of each Predict-FC stack (output layer of 1 is
    /// appended automatically)
    std::vector<size_t> predictFcDims;
    size_t numTasks = 1;        ///< parallel predict stacks (MT-WnD)

    // --- service level (Table II) ---
    double slaMediumMs = 0.0;   ///< published medium tail-latency target
    OpClass expectedBottleneck = OpClass::Fc; ///< Table II class
};

/** All eight model ids in Table I order. */
const std::vector<ModelId>& allModelIds();

/** Canonical configuration for one model. */
ModelConfig modelConfig(ModelId id);

/** Short display name, e.g. "DLRM-RMC2". */
std::string modelName(ModelId id);

/** Inverse of modelName(); fatal on unknown names. */
ModelId modelFromName(const std::string& name);

/**
 * SLA target in milliseconds for a named tier: "low" and "high" are
 * 50% below/above the published medium target (paper Section V).
 */
enum class SlaTier { Low, Medium, High };

/** Tier name for printing. */
const char* slaTierName(SlaTier tier);

/** Latency target for a model at a tier, in milliseconds. */
double slaTargetMs(const ModelConfig& cfg, SlaTier tier);

} // namespace deeprecsys

#endif // DRS_MODELS_MODEL_CONFIG_HH
