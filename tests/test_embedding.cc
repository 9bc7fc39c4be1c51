/**
 * @file
 * Unit tests for embedding tables, pooled lookups, and groups.
 */

#include <gtest/gtest.h>

#include "nn/embedding.hh"

namespace deeprecsys {
namespace {

/** One table's pooled lookup written into a fresh [batch, width] block. */
Tensor
bag(const EmbeddingTable& t, const SparseBatch& b, Pooling pooling,
    OperatorStats* stats = nullptr)
{
    const size_t width =
        pooling == Pooling::Concat ? b.lookups(0) * t.dim() : t.dim();
    Tensor out = Tensor::mat(b.batchSize(), width);
    t.bagForward(b, pooling, out.data(), width, stats);
    return out;
}

TEST(SparseBatch, UniformShape)
{
    Rng rng(1);
    const SparseBatch b = SparseBatch::uniform(4, 3, 100, rng);
    EXPECT_EQ(b.batchSize(), 4u);
    EXPECT_EQ(b.indices.size(), 12u);
    for (size_t i = 0; i < 4; i++)
        EXPECT_EQ(b.lookups(i), 3u);
    for (uint64_t idx : b.indices)
        EXPECT_LT(idx, 100u);
}

TEST(SparseBatchDeath, RowsBeyond32BitIndicesPanic)
{
    Rng rng(1);
    EXPECT_DEATH((void)SparseBatch::uniform(1, 1, uint64_t{UINT32_MAX} + 1,
                                            rng),
                 "32-bit indices");
}

TEST(SparseBatch, EmptyHasZeroBatch)
{
    SparseBatch b;
    EXPECT_EQ(b.batchSize(), 0u);
}

TEST(EmbeddingTable, PhysicalRowsCapped)
{
    Rng rng(2);
    EmbeddingTable t(1'000'000, 8, rng, /*max_physical_rows=*/256);
    EXPECT_EQ(t.logicalRows(), 1'000'000u);
    EXPECT_EQ(t.physicalRows(), 256u);
    EXPECT_EQ(t.logicalBytes(), 1'000'000ull * 8 * sizeof(float));
}

TEST(EmbeddingTable, SmallTableUncapped)
{
    Rng rng(3);
    EmbeddingTable t(100, 8, rng, 256);
    EXPECT_EQ(t.physicalRows(), 100u);
}

TEST(EmbeddingTable, RowForIsDeterministic)
{
    Rng rng(4);
    EmbeddingTable t(1'000'000, 16, rng, 512);
    const float* a = t.rowFor(123456);
    const float* b = t.rowFor(123456);
    EXPECT_EQ(a, b);
}

TEST(EmbeddingTable, DistinctLogicalRowsSpread)
{
    Rng rng(5);
    EmbeddingTable t(1'000'000, 4, rng, 1024);
    // Hashing should map distinct indices to many distinct rows.
    std::set<const float*> rows;
    for (uint64_t i = 0; i < 200; i++)
        rows.insert(t.rowFor((i * 9973) % t.logicalRows()));
    EXPECT_GT(rows.size(), 150u);
}

TEST(EmbeddingTable, SumPoolingMatchesManual)
{
    Rng rng(6);
    EmbeddingTable t(50, 4, rng);
    SparseBatch b;
    b.indices = {3, 7, 7};
    b.offsets = {0, 3};
    const Tensor out = bag(t, b, Pooling::Sum);
    const float* r3 = t.rowFor(3);
    const float* r7 = t.rowFor(7);
    for (size_t d = 0; d < 4; d++)
        EXPECT_FLOAT_EQ(out.at(0, d), r3[d] + 2 * r7[d]);
}

TEST(EmbeddingTable, ConcatPoolingWidth)
{
    Rng rng(8);
    EmbeddingTable t(50, 4, rng);
    const SparseBatch b = SparseBatch::uniform(3, 5, 50, rng);
    const Tensor out = bag(t, b, Pooling::Concat);
    EXPECT_EQ(out.dim(0), 3u);
    EXPECT_EQ(out.dim(1), 20u);
}

TEST(EmbeddingTable, ConcatPreservesOrder)
{
    Rng rng(9);
    EmbeddingTable t(50, 2, rng);
    SparseBatch b;
    b.indices = {4, 9};
    b.offsets = {0, 2};
    const Tensor out = bag(t, b, Pooling::Concat);
    const float* r4 = t.rowFor(4);
    const float* r9 = t.rowFor(9);
    EXPECT_FLOAT_EQ(out.at(0, 0), r4[0]);
    EXPECT_FLOAT_EQ(out.at(0, 1), r4[1]);
    EXPECT_FLOAT_EQ(out.at(0, 2), r9[0]);
    EXPECT_FLOAT_EQ(out.at(0, 3), r9[1]);
}

TEST(EmbeddingTable, GatherSequenceShapeAndContent)
{
    Rng rng(10);
    EmbeddingTable t(50, 3, rng);
    SparseBatch b;
    b.indices = {1, 2, 3, 4};
    b.offsets = {0, 2, 4};
    Tensor seq;
    t.gatherSequence(b, seq);
    EXPECT_EQ(seq.rank(), 3u);
    EXPECT_EQ(seq.dim(0), 2u);
    EXPECT_EQ(seq.dim(1), 2u);
    EXPECT_EQ(seq.dim(2), 3u);
    const float* r3 = t.rowFor(3);
    EXPECT_FLOAT_EQ(seq.data()[1 * 2 * 3 + 0 * 3 + 0], r3[0]);
}

TEST(EmbeddingTable, ChargesEmbeddingTime)
{
    Rng rng(11);
    EmbeddingTable t(1000, 16, rng);
    const SparseBatch b = SparseBatch::uniform(32, 8, 1000, rng);
    OperatorStats stats;
    bag(t, b, Pooling::Sum, &stats);
    EXPECT_GT(stats.seconds(OpClass::Embedding), 0.0);
    EXPECT_DOUBLE_EQ(stats.seconds(OpClass::Fc), 0.0);
}

TEST(EmbeddingGroup, TableCountAndWidth)
{
    Rng rng(12);
    EmbeddingGroup g(4, 1000, 8, 2, Pooling::Sum, rng);
    EXPECT_EQ(g.numTables(), 4u);
    EXPECT_EQ(g.dim(), 8u);
    EXPECT_EQ(g.pooledWidth(), 32u);    // 4 tables x dim 8 (sum)
}

TEST(EmbeddingGroup, ConcatPooledWidthIncludesLookups)
{
    Rng rng(13);
    EmbeddingGroup g(3, 1000, 8, 5, Pooling::Concat, rng);
    EXPECT_EQ(g.pooledWidth(), 3u * 5u * 8u);
}

TEST(EmbeddingGroup, ForwardProducesOneOutputPerTable)
{
    Rng rng(14);
    EmbeddingGroup g(3, 500, 4, 2, Pooling::Sum, rng);
    std::vector<SparseBatch> batches;
    g.randomBatches(6, rng, batches);
    EXPECT_EQ(batches.size(), 3u);
    // One [batch, 3 * 4] block: table t's bag fills columns
    // [4t, 4t + 4), bit for bit as the table's own forward.
    Tensor block;
    g.forward(batches, block);
    EXPECT_EQ(block.dim(0), 6u);
    EXPECT_EQ(block.dim(1), 3u * 4u);
    for (size_t t = 0; t < 3; t++) {
        const Tensor own = bag(g.table(t), batches[t], Pooling::Sum);
        EXPECT_EQ(own.dim(0), 6u);
        EXPECT_EQ(own.dim(1), 4u);
        for (size_t i = 0; i < 6; i++) {
            for (size_t d = 0; d < 4; d++)
                EXPECT_EQ(block.at(i, 4 * t + d), own.at(i, d));
        }
    }
}

TEST(EmbeddingGroup, BytesPerSampleAccounting)
{
    Rng rng(15);
    EmbeddingGroup g(8, 1000, 32, 80, Pooling::Sum, rng);
    // 8 tables x 80 lookups x 32 floats = 81920 bytes (DLRM-RMC1).
    EXPECT_EQ(g.bytesPerSample(), 8ull * 80 * 32 * sizeof(float));
}

TEST(EmbeddingGroup, LogicalBytesSumsTables)
{
    Rng rng(16);
    EmbeddingGroup g(2, 1'000'000, 16, 1, Pooling::Sum, rng, 128);
    EXPECT_EQ(g.logicalBytes(), 2ull * 1'000'000 * 16 * sizeof(float));
}

TEST(EmbeddingTable, KernelsPickTheRowsRowForPicks)
{
    // The kernels choose their row map once per call: identity when
    // every row is resident, else a mask over the power-of-two
    // physical count. Each must read the rows rowFor names and sum
    // them in lookup order, bit for bit; dim 80 spans two blocks of
    // the pooled sum's local row.
    for (uint64_t cap : {uint64_t{1} << 20, uint64_t{256}}) {
        for (size_t dim : {size_t{4}, size_t{80}}) {
            Rng rng(18);
            EmbeddingTable t(5000, dim, rng, cap);
            const SparseBatch b = SparseBatch::uniform(6, 7, 5000, rng);
            const Tensor sum = bag(t, b, Pooling::Sum);
            const Tensor concat = bag(t, b, Pooling::Concat);
            Tensor seq;
            t.gatherSequence(b, seq);
            for (size_t i = 0; i < 6; i++) {
                std::vector<float> want(dim, 0.0f);
                for (size_t j = 0; j < 7; j++) {
                    const float* row = t.rowFor(b.indices[i * 7 + j]);
                    for (size_t d = 0; d < dim; d++) {
                        want[d] += row[d];
                        EXPECT_EQ(concat.at(i, j * dim + d), row[d]);
                        EXPECT_EQ(seq.data()[(i * 7 + j) * dim + d], row[d]);
                    }
                }
                for (size_t d = 0; d < dim; d++) {
                    EXPECT_EQ(sum.at(i, d), want[d])
                        << "cap " << cap << " dim " << dim;
                }
            }
        }
    }
}

TEST(EmbeddingTableDeath, NonPowerOfTwoCapBelowTheRowsIsAConfigError)
{
    Rng rng(18);
    EXPECT_EXIT(EmbeddingTable(5000, 4, rng, 300),
                ::testing::ExitedWithCode(1), "not a power of two");
    // A cap at the row count leaves every row resident.
    EXPECT_EQ(EmbeddingTable(300, 4, rng, 300).physicalRows(), 300u);
}

TEST(EmbeddingGroup, FillsEachTableFromItsOwnFork)
{
    // The group forks one stream per table from the caller's stream,
    // in table order, and fills the tables from them in parallel:
    // each table is the one built alone from its fork, and the
    // caller's stream ends one draw per table on.
    Rng group_rng(19);
    const EmbeddingGroup g(5, 700, 12, 3, Pooling::Sum, group_rng);
    Rng fork_rng(19);
    for (size_t t = 0; t < 5; t++) {
        Rng fork = fork_rng.fork();
        const EmbeddingTable alone(700, 12, fork);
        for (uint64_t row = 0; row < 700; row++) {
            const float* got = g.table(t).rowFor(row);
            const float* want = alone.rowFor(row);
            for (size_t d = 0; d < 12; d++)
                ASSERT_EQ(got[d], want[d]) << "table " << t << " row " << row;
        }
    }
    EXPECT_EQ(group_rng(), fork_rng());
}

/** Pooling output stays finite across lookup-count sweeps. */
class EmbeddingLookupSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(EmbeddingLookupSweep, FiniteSumPooling)
{
    Rng rng(17);
    EmbeddingTable t(10'000, 16, rng, 1024);
    const size_t lookups = static_cast<size_t>(GetParam());
    const SparseBatch b = SparseBatch::uniform(8, lookups, 10'000, rng);
    const Tensor out = bag(t, b, Pooling::Sum);
    for (size_t i = 0; i < out.numel(); i++)
        EXPECT_TRUE(std::isfinite(out.at(i)));
}

INSTANTIATE_TEST_SUITE_P(Lookups, EmbeddingLookupSweep,
                         ::testing::Values(1, 4, 20, 80, 200));

} // namespace
} // namespace deeprecsys
