#include "embedding.hh"

#include <algorithm>
#include <bit>
#include <optional>

#include "base/thread_pool.hh"

namespace deeprecsys {

namespace {

/**
 * Call fn with the logical-to-physical row map of a table, chosen once
 * per kernel call rather than once per lookup: the identity when every
 * row is resident, else the hashed row by mask (the physical count is
 * then a power of two, so the mask picks the row the modulo would).
 */
template <typename Fn>
void
withRowMap(uint64_t logical_rows, uint64_t physical_rows, Fn&& fn)
{
    if (physical_rows == logical_rows) {
        fn([](uint64_t i) { return i; });
    } else {
        const uint64_t mask = physical_rows - 1;
        fn([mask](uint64_t i) { return mix64(i) & mask; });
    }
}

/** Floats a pooled sum keeps in its local row at a time. */
constexpr size_t kSumBlock = 64;

} // namespace

SparseBatch
SparseBatch::uniform(size_t batch, size_t lookups_per_sample,
                     uint64_t num_rows, Rng& rng)
{
    SparseBatch out;
    out.fillUniform(batch, lookups_per_sample, num_rows, rng);
    return out;
}

void
SparseBatch::fillUniform(size_t batch, size_t lookups_per_sample,
                         uint64_t num_rows, Rng& rng)
{
    drs_assert(num_rows > 0 && num_rows <= UINT32_MAX,
               "sparse batch over ", num_rows,
               " rows; 32-bit indices need 1..UINT32_MAX");
    drs_assert(batch * lookups_per_sample <= UINT32_MAX,
               "sparse batch outgrew its 32-bit offsets");
    offsets.resize(batch + 1);
    indices.resize(batch * lookups_per_sample);
    size_t at = 0;
    offsets[0] = 0;
    for (size_t i = 0; i < batch; i++) {
        for (size_t j = 0; j < lookups_per_sample; j++)
            indices[at++] = static_cast<uint32_t>(rng() % num_rows);
        offsets[i + 1] = static_cast<uint32_t>(at);
    }
}

EmbeddingTable::EmbeddingTable(uint64_t logical_rows, size_t dim, Rng& rng,
                               uint64_t max_physical_rows)
    : logicalRows_(logical_rows),
      physicalRows_(std::min(logical_rows, max_physical_rows)), dim_(dim)
{
    drs_assert(logical_rows > 0, "embedding table needs rows");
    drs_assert(dim > 0, "embedding dim must be positive");
    if (physicalRows_ < logicalRows_ && !std::has_single_bit(physicalRows_))
        drs_fatal("embedding residency cap ", max_physical_rows,
                  " is below the table's ", logical_rows,
                  " rows and not a power of two");
    storage.resize(physicalRows_ * dim_);
    // Small-magnitude init, as trained embeddings typically are.
    for (auto& v : storage)
        v = static_cast<float>(rng.uniform(-0.05, 0.05));
}

const float*
EmbeddingTable::rowFor(uint64_t logical_index) const
{
    checkIndex(logical_index);
    const uint64_t physical = physicalRows_ == logicalRows_
        ? logical_index
        : mix64(logical_index) % physicalRows_;
    return storage.data() + physical * dim_;
}

void
EmbeddingTable::checkIndex(uint64_t logical_index) const
{
    drs_assert(logical_index < logicalRows_,
               "embedding index ", logical_index, " out of range ",
               logicalRows_);
}

void
EmbeddingTable::bagForward(const SparseBatch& batch, Pooling pooling,
                           float* out, size_t ldo,
                           OperatorStats* stats) const
{
    ScopedOpTimer timer(stats, OpClass::Embedding);
    const size_t bs = batch.batchSize();
    drs_assert(bs > 0, "empty sparse batch");

    if (pooling == Pooling::Concat) {
        const size_t lookups = batch.lookups(0);
        drs_assert(ldo >= lookups * dim_, "bag row stride too narrow");
        for (size_t i = 0; i < bs; i++) {
            drs_assert(batch.lookups(i) == lookups,
                       "concat pooling needs a uniform lookup count");
        }
        copyRows(batch, lookups, out, ldo);
        return;
    }

    drs_assert(ldo >= dim_, "bag row stride too narrow");
    withRowMap(logicalRows_, physicalRows_, [&](auto physical) {
        for (size_t i = 0; i < bs; i++) {
            const size_t begin = batch.offsets[i];
            const size_t end = batch.offsets[i + 1];
            // Each column sums its rows in lookup order into a local
            // row, which the compiler knows the table cannot alias.
            for (size_t d0 = 0; d0 < dim_; d0 += kSumBlock) {
                const size_t width = std::min(kSumBlock, dim_ - d0);
                float sum[kSumBlock] = {};
                for (size_t j = begin; j < end; j++) {
                    const uint64_t index = batch.indices[j];
                    checkIndex(index);
                    const float* src =
                        storage.data() + physical(index) * dim_ + d0;
                    for (size_t d = 0; d < width; d++)
                        sum[d] += src[d];
                }
                std::copy(sum, sum + width, out + i * ldo + d0);
            }
        }
    });
}

void
EmbeddingTable::copyRows(const SparseBatch& batch, size_t lookups,
                         float* out, size_t ldo) const
{
    withRowMap(logicalRows_, physicalRows_, [&](auto physical) {
        for (size_t i = 0; i < batch.batchSize(); i++) {
            float* dst = out + i * ldo;
            for (size_t j = 0; j < lookups; j++) {
                const uint64_t index = batch.indices[batch.offsets[i] + j];
                checkIndex(index);
                const float* src = storage.data() + physical(index) * dim_;
                dst = std::copy(src, src + dim_, dst);
            }
        }
    });
}

void
EmbeddingTable::gatherSequence(const SparseBatch& batch, Tensor& out,
                               OperatorStats* stats) const
{
    ScopedOpTimer timer(stats, OpClass::Embedding);
    const size_t bs = batch.batchSize();
    drs_assert(bs > 0, "empty sparse batch");
    const size_t seq = batch.lookups(0);
    out.resize({bs, seq, dim_});
    for (size_t i = 0; i < bs; i++) {
        drs_assert(batch.lookups(i) == seq,
                   "gatherSequence needs a uniform lookup count");
    }
    copyRows(batch, seq, out.data(), seq * dim_);
}

EmbeddingGroup::EmbeddingGroup(size_t num_tables, uint64_t logical_rows,
                               size_t dim, size_t lookups_per_table,
                               Pooling pooling, Rng& rng,
                               uint64_t max_physical_rows)
    : lookupsPerTable_(lookups_per_table), pooling_(pooling)
{
    drs_assert(num_tables > 0, "embedding group needs tables");
    drs_assert(lookups_per_table > 0, "lookups per table must be positive");
    // Each table fills from its own fork of rng, taken in table order
    // here; the pool then fills the tables in parallel, so every value
    // is the same at every thread count.
    std::vector<Rng> streams;
    streams.reserve(num_tables);
    for (size_t i = 0; i < num_tables; i++)
        streams.push_back(rng.fork());
    std::vector<std::optional<EmbeddingTable>> built(num_tables);
    ThreadPool::shared().parallelFor(num_tables, [&](size_t i) {
        built[i].emplace(logical_rows, dim, streams[i], max_physical_rows);
    });
    tables.reserve(num_tables);
    for (std::optional<EmbeddingTable>& table : built)
        tables.push_back(std::move(*table));
}

void
EmbeddingGroup::forward(const std::vector<SparseBatch>& batches, Tensor& out,
                        OperatorStats* stats) const
{
    drs_assert(batches.size() == tables.size(),
               "need one sparse batch per table");
    const size_t bs = batches.front().batchSize();
    const size_t width = pooledWidth();
    const size_t per_table = width / tables.size();
    out.resize({bs, width});
    for (size_t t = 0; t < tables.size(); t++) {
        drs_assert(batches[t].batchSize() == bs,
                   "per-table batches differ in size");
        drs_assert(pooling_ != Pooling::Concat ||
                       batches[t].lookups(0) == lookupsPerTable_,
                   "concat-pooled table needs lookupsPerTable lookups");
        tables[t].bagForward(batches[t], pooling_, out.data() + t * per_table,
                             width, stats);
    }
}

void
EmbeddingGroup::randomBatches(size_t batch, Rng& rng,
                              std::vector<SparseBatch>& out) const
{
    out.resize(tables.size());
    for (size_t t = 0; t < tables.size(); t++) {
        out[t].fillUniform(batch, lookupsPerTable_, tables[t].logicalRows(),
                           rng);
    }
}

size_t
EmbeddingGroup::pooledWidth() const
{
    const size_t per_table = pooling_ == Pooling::Concat
        ? lookupsPerTable_ * dim() : dim();
    return per_table * tables.size();
}

uint64_t
EmbeddingGroup::bytesPerSample() const
{
    return static_cast<uint64_t>(tables.size()) * lookupsPerTable_ *
           dim() * sizeof(float);
}

uint64_t
EmbeddingGroup::logicalBytes() const
{
    uint64_t bytes = 0;
    for (const auto& table : tables)
        bytes += table.logicalBytes();
    return bytes;
}

} // namespace deeprecsys
