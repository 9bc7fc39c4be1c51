/**
 * @file
 * Embedding tables and pooled lookup (EmbeddingBag) for sparse
 * categorical features.
 *
 * Production tables can reach billions of logical rows; to keep host
 * memory bounded the table distinguishes logical rows (the category
 * cardinality used for index validation and capacity accounting) from
 * physical rows (allocated vectors). Logical indices hash onto physical
 * rows, preserving the irregular, table-wide access pattern that makes
 * embedding lookups memory-bound.
 */

#ifndef DRS_NN_EMBEDDING_HH
#define DRS_NN_EMBEDDING_HH

#include <cstdint>
#include <vector>

#include "base/random.hh"
#include "nn/op_stats.hh"
#include "tensor/tensor.hh"

namespace deeprecsys {

/** Pooling operator applied over the rows gathered for one sample. */
enum class Pooling { Sum, Mean, Concat };

/**
 * Sparse feature batch in CSR form: for sample i, its indices are
 * indices[offsets[i] .. offsets[i+1]). Indices and offsets are 32-bit:
 * a table has at most UINT32_MAX rows (RecModel checks its config).
 */
struct SparseBatch
{
    std::vector<uint32_t> indices;
    std::vector<uint32_t> offsets;  ///< size batchSize()+1, offsets[0]==0

    /** Number of samples in the batch. */
    size_t batchSize() const { return offsets.empty() ? 0 : offsets.size() - 1; }

    /** Number of indices for one sample. */
    size_t
    lookups(size_t sample) const
    {
        return offsets[sample + 1] - offsets[sample];
    }

    /** Build a batch with a fixed number of lookups per sample. */
    static SparseBatch uniform(size_t batch, size_t lookups_per_sample,
                               uint64_t num_rows, Rng& rng);

    /**
     * Refill this batch as uniform() would build it, drawing the same
     * numbers from @p rng, but in the storage it already holds: a
     * batch refilled at sizes it has seen allocates nothing.
     */
    void fillUniform(size_t batch, size_t lookups_per_sample,
                     uint64_t num_rows, Rng& rng);
};

/** One embedding table plus its pooled-lookup operation. */
class EmbeddingTable
{
  public:
    /**
     * @param logical_rows category cardinality (may be billions)
     * @param dim latent vector width
     * @param rng initialization stream
     * @param max_physical_rows allocation cap; logical indices hash
     *        onto this many resident rows
     */
    EmbeddingTable(uint64_t logical_rows, size_t dim, Rng& rng,
                   uint64_t max_physical_rows = 1ull << 20);

    /** Category cardinality this table represents. */
    uint64_t logicalRows() const { return logicalRows_; }

    /** Rows actually resident in memory. */
    uint64_t physicalRows() const { return physicalRows_; }

    /** Latent dimension. */
    size_t dim() const { return dim_; }

    /** Bytes this table would occupy at full logical size (float32). */
    uint64_t logicalBytes() const
    {
        return logicalRows_ * static_cast<uint64_t>(dim_) * sizeof(float);
    }

    /**
     * Pointer to the physical row backing a logical index: the row
     * itself when every row is resident, else row hash % physical
     * rows. The kernels below choose an equivalent map once per call;
     * this per-index form is their reference.
     */
    const float* rowFor(uint64_t logical_index) const;

    /**
     * Pooled lookup: gathers each sample's rows and pools them, and
     * writes sample i's pooled row to out[i * ldo, i * ldo + width),
     * so a table can fill its column slice of a wider [batch, ...]
     * block. width is dim for Sum/Mean. For Concat every sample must
     * have the same lookup count L and width is L * dim. Time is
     * charged to OpClass::Embedding of @p stats when non-null.
     */
    void bagForward(const SparseBatch& batch, Pooling pooling, float* out,
                    size_t ldo, OperatorStats* stats = nullptr) const;

    /**
     * Unpooled gather into a behavior sequence tensor [batch, L, dim],
     * resized in its own storage; every sample must have the same
     * lookup count L. Used for the attention (DIN) and recurrent
     * (DIEN) paths which consume per-step embeddings rather than a
     * pooled vector.
     */
    void gatherSequence(const SparseBatch& batch, Tensor& out,
                        OperatorStats* stats = nullptr) const;

  private:
    /** Dies unless @p logical_index is below logicalRows(). */
    void checkIndex(uint64_t logical_index) const;

    /**
     * Gather each sample's @p lookups rows, unpooled, into
     * out[i * ldo, i * ldo + lookups * dim); every sample must have
     * that many lookups.
     */
    void copyRows(const SparseBatch& batch, size_t lookups, float* out,
                  size_t ldo) const;

    uint64_t logicalRows_;
    uint64_t physicalRows_;
    size_t dim_;
    std::vector<float> storage;     ///< physicalRows_ x dim_
};

/**
 * The sparse side of a recommendation model: a set of embedding tables
 * that share a lookup count and pooling operator (Table I columns
 * "Tables", "Lookup", "Pooling").
 */
class EmbeddingGroup
{
  public:
    /**
     * @param num_tables number of embedding tables
     * @param logical_rows per-table category cardinality
     * @param dim latent dimension
     * @param lookups_per_table multi-hot lookup count per sample
     * @param pooling pooling operator
     * @param rng initialization stream
     * @param max_physical_rows residency cap per table
     */
    EmbeddingGroup(size_t num_tables, uint64_t logical_rows, size_t dim,
                   size_t lookups_per_table, Pooling pooling, Rng& rng,
                   uint64_t max_physical_rows = 1ull << 20);

    size_t numTables() const { return tables.size(); }
    size_t dim() const { return tables.empty() ? 0 : tables.front().dim(); }
    size_t lookupsPerTable() const { return lookupsPerTable_; }

    /** Per-table access. */
    const EmbeddingTable& table(size_t i) const { return tables[i]; }

    /**
     * Forward all tables over a per-table sparse batch into one
     * [batch, pooledWidth()] block: table t's pooled output fills
     * columns [t * w, (t + 1) * w) for its width w, written in place.
     * @p out is resized in its own storage.
     */
    void forward(const std::vector<SparseBatch>& batches, Tensor& out,
                 OperatorStats* stats = nullptr) const;

    /**
     * Refill @p out with one random sparse batch per table, in table
     * order, reusing the storage it holds (SparseBatch::fillUniform).
     */
    void randomBatches(size_t batch, Rng& rng,
                       std::vector<SparseBatch>& out) const;

    /** Output width per sample after pooling all tables and concat. */
    size_t pooledWidth() const;

    /** Total embedding bytes touched per sample (gather traffic). */
    uint64_t bytesPerSample() const;

    /** Full logical parameter bytes across tables. */
    uint64_t logicalBytes() const;

  private:
    std::vector<EmbeddingTable> tables;
    size_t lookupsPerTable_;
    Pooling pooling_;
};

} // namespace deeprecsys

#endif // DRS_NN_EMBEDDING_HH
