/**
 * @file
 * Tests for the model zoo: every model in Table I builds, scores
 * batches to pinned output bits, scores them alike through a reused
 * ForwardScratch, refills one batch in place exactly as it draws a
 * fresh one, and reports consistent resource accounting; a table too
 * large for 32-bit lookup indices is a config error.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "models/rec_model.hh"
#include "tests/fixtures.hh"

namespace deeprecsys {
namespace {

TEST(ModelConfig, EightModels)
{
    EXPECT_EQ(allModelIds().size(), 8u);
}

TEST(ModelConfig, NamesRoundTrip)
{
    for (ModelId id : allModelIds())
        EXPECT_EQ(modelFromName(modelName(id)), id);
}

TEST(ModelConfig, TableOneParameters)
{
    // Spot checks against Table I of the paper.
    const ModelConfig ncf = modelConfig(ModelId::Ncf);
    EXPECT_EQ(ncf.numTables, 4u);
    EXPECT_EQ(ncf.lookupsPerTable, 1u);
    EXPECT_TRUE(ncf.denseFcDims.empty());

    const ModelConfig rmc1 = modelConfig(ModelId::DlrmRmc1);
    EXPECT_EQ(rmc1.denseFcDims, (std::vector<size_t>{256, 128, 32}));
    EXPECT_EQ(rmc1.predictFcDims, (std::vector<size_t>{256, 64}));
    EXPECT_LE(rmc1.numTables, 10u);
    EXPECT_NEAR(rmc1.lookupsPerTable, 80u, 0);

    const ModelConfig rmc2 = modelConfig(ModelId::DlrmRmc2);
    EXPECT_LE(rmc2.numTables, 40u);
    EXPECT_GT(rmc2.numTables, rmc1.numTables);

    const ModelConfig rmc3 = modelConfig(ModelId::DlrmRmc3);
    EXPECT_EQ(rmc3.denseFcDims.front(), 2560u);
    EXPECT_NEAR(rmc3.lookupsPerTable, 20u, 0);

    const ModelConfig mt = modelConfig(ModelId::MtWideAndDeep);
    EXPECT_GT(mt.numTasks, 1u);

    const ModelConfig din = modelConfig(ModelId::Din);
    EXPECT_TRUE(din.useAttention);
    EXPECT_FALSE(din.useRecurrent);
    EXPECT_GE(din.seqLen, 100u);    // hundreds of behavior lookups

    const ModelConfig dien = modelConfig(ModelId::Dien);
    EXPECT_TRUE(dien.useRecurrent);
    EXPECT_LT(dien.seqLen, din.seqLen);   // tens of lookups
}

TEST(ModelConfig, SlaTargetsMatchTableTwo)
{
    EXPECT_DOUBLE_EQ(modelConfig(ModelId::DlrmRmc1).slaMediumMs, 100.0);
    EXPECT_DOUBLE_EQ(modelConfig(ModelId::DlrmRmc2).slaMediumMs, 400.0);
    EXPECT_DOUBLE_EQ(modelConfig(ModelId::DlrmRmc3).slaMediumMs, 100.0);
    EXPECT_DOUBLE_EQ(modelConfig(ModelId::Ncf).slaMediumMs, 5.0);
    EXPECT_DOUBLE_EQ(modelConfig(ModelId::WideAndDeep).slaMediumMs, 25.0);
    EXPECT_DOUBLE_EQ(modelConfig(ModelId::MtWideAndDeep).slaMediumMs, 25.0);
    EXPECT_DOUBLE_EQ(modelConfig(ModelId::Din).slaMediumMs, 100.0);
    EXPECT_DOUBLE_EQ(modelConfig(ModelId::Dien).slaMediumMs, 35.0);
}

TEST(ModelConfig, SlaTiersBracketMedium)
{
    const ModelConfig cfg = modelConfig(ModelId::DlrmRmc1);
    EXPECT_DOUBLE_EQ(slaTargetMs(cfg, SlaTier::Low), 50.0);
    EXPECT_DOUBLE_EQ(slaTargetMs(cfg, SlaTier::Medium), 100.0);
    EXPECT_DOUBLE_EQ(slaTargetMs(cfg, SlaTier::High), 150.0);
}

/** Parameterized over the full model zoo. */
class ModelZoo : public ::testing::TestWithParam<ModelId>
{
  protected:
    static RecModel
    build()
    {
        return RecModel(modelConfig(GetParam()), /*seed=*/11,
                        ModelScale::tiny());
    }
};

TEST_P(ModelZoo, BuildsAtTinyScale)
{
    const RecModel model = build();
    EXPECT_EQ(model.config().id, GetParam());
    EXPECT_GT(model.interactionWidth(), 0u);
}

TEST_P(ModelZoo, ForwardShapeAndRange)
{
    const RecModel model = build();
    Rng rng(3);
    const RecBatch batch = model.makeBatch(4, rng);
    EXPECT_EQ(batch.batchSize(), 4u);
    const Tensor out = model.forward(batch);
    EXPECT_EQ(out.dim(0), 4u);
    EXPECT_EQ(out.dim(1), model.config().numTasks);
    for (size_t i = 0; i < out.numel(); i++) {
        EXPECT_GT(out.at(i), 0.0f);   // sigmoid CTR
        EXPECT_LT(out.at(i), 1.0f);
    }
}

TEST_P(ModelZoo, ForwardDeterministicGivenSeeds)
{
    const RecModel a(modelConfig(GetParam()), 11, ModelScale::tiny());
    const RecModel b(modelConfig(GetParam()), 11, ModelScale::tiny());
    Rng rng_a(5);
    Rng rng_b(5);
    const RecBatch batch_a = a.makeBatch(2, rng_a);
    const RecBatch batch_b = b.makeBatch(2, rng_b);
    const Tensor out_a = a.forward(batch_a);
    const Tensor out_b = b.forward(batch_b);
    for (size_t i = 0; i < out_a.numel(); i++)
        EXPECT_FLOAT_EQ(out_a.at(i), out_b.at(i));
}

TEST_P(ModelZoo, BatchSizeOneWorks)
{
    const RecModel model = build();
    Rng rng(7);
    const RecBatch batch = model.makeBatch(1, rng);
    const Tensor out = model.forward(batch);
    EXPECT_EQ(out.dim(0), 1u);
}

TEST_P(ModelZoo, FlopAccountingPositive)
{
    const RecModel model = build();
    EXPECT_GT(model.denseFlopsPerSample(), 0u);
    EXPECT_EQ(model.sequenceFlopsPerSample(),
              model.attentionFlopsPerSample() +
                  model.recurrentFlopsPerSample());
}

TEST_P(ModelZoo, EmbeddingBytesPositiveWhenSparse)
{
    const RecModel model = build();
    if (model.config().numTables > 0 || model.config().seqLen > 0) {
        EXPECT_GT(model.embeddingBytesPerSample(), 0u);
    }
}

TEST_P(ModelZoo, OperatorBreakdownAccumulates)
{
    const RecModel model = build();
    Rng rng(9);
    const OperatorStats stats = model.measureBreakdown(4, 2, rng);
    EXPECT_GT(stats.total(), 0.0);
    EXPECT_GT(stats.seconds(OpClass::Fc), 0.0);
    // The concat (or sum, or GMF product) into the predictor input is
    // its own timed copy (Figure 3's interaction class).
    EXPECT_GT(stats.seconds(OpClass::Interaction), 0.0);
}

/** True when @p a and @p b have one shape and the same bits. */
bool
sameDense(const Tensor& a, const Tensor& b)
{
    return a.shape() == b.shape() &&
        (a.empty() ||
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0);
}

/** True when @p a and @p b hold the same samples, bit for bit. */
bool
sameSparse(const SparseBatch& a, const SparseBatch& b)
{
    return a.indices == b.indices && a.offsets == b.offsets;
}

TEST_P(ModelZoo, RefilledBatchMatchesFreshBitwise)
{
    // One batch refilled over shrinking and growing sizes equals a
    // fresh makeBatch each time, and both draw the same numbers. It
    // starts as another model's batch, with inputs this one lacks.
    const RecModel model = build();
    const bool sequence = model.config().useAttention;
    const RecModel other(
        modelConfig(sequence ? ModelId::WideAndDeep : ModelId::Din), 3,
        ModelScale::tiny());
    Rng other_rng(4);
    RecBatch refilled = other.makeBatch(9, other_rng);
    Rng fresh_rng(21);
    Rng refill_rng(21);
    for (size_t size : {7, 64, 3, 1, 128, 40}) {
        const RecBatch fresh = model.makeBatch(size, fresh_rng);
        model.makeBatch(size, refill_rng, refilled);
        ASSERT_EQ(refilled.batchSize(), size);
        EXPECT_TRUE(sameDense(refilled.dense, fresh.dense))
            << "size " << size;
        ASSERT_EQ(refilled.sparse.size(), fresh.sparse.size());
        for (size_t t = 0; t < fresh.sparse.size(); t++)
            EXPECT_TRUE(sameSparse(refilled.sparse[t], fresh.sparse[t]))
                << "size " << size << " table " << t;
        EXPECT_TRUE(sameSparse(refilled.behaviors, fresh.behaviors));
        EXPECT_TRUE(sameSparse(refilled.candidates, fresh.candidates));
        ASSERT_EQ(refill_rng(), fresh_rng()) << "size " << size;
    }
}

/** Mix a tensor's shape and the bits of its elements into @p h. */
void
digest(Fnv1a& h, const Tensor& t)
{
    for (size_t d : t.shape())
        h.bytes(&d, sizeof(d));
    h.bytes(t.data(), t.numel() * sizeof(float));
}

/** Digest of the zoo model's outputs at batches 1, 7, 64 and 256. */
uint64_t
pinnedDigest(ModelId id)
{
    switch (id) {
      case ModelId::Ncf: return 0xd554d43ef03d9662ULL;
      case ModelId::WideAndDeep: return 0x30b299448399ca07ULL;
      case ModelId::MtWideAndDeep: return 0x9b08b487f20fe287ULL;
      case ModelId::DlrmRmc1: return 0x7afd706eb1bea4a8ULL;
      case ModelId::DlrmRmc2: return 0xa79f76a3dd07b845ULL;
      case ModelId::DlrmRmc3: return 0xf19e3f4759e453b0ULL;
      case ModelId::Din: return 0x0d2f238f5198d9b8ULL;
      case ModelId::Dien: return 0x405bf74e0b4cb8ccULL;
      default: return 0;
    }
}

TEST_P(ModelZoo, ForwardOutputsPinned)
{
    // Output bits, not just ranges: a kernel or buffer change that
    // moves one rounding anywhere in the forward pass shows here.
    const RecModel model = build();
    Rng rng(17);
    Fnv1a h;
    for (size_t size : {1, 7, 64, 256})
        digest(h, model.forward(model.makeBatch(size, rng)));
    EXPECT_EQ(h.value(), pinnedDigest(GetParam()))
        << std::hex << "0x" << h.value() << "ULL";
}

TEST(RecModel, ReusedScratchMatchesFreshForwardBitwise)
{
    // One scratch and one batch carried through every zoo model, at
    // growing and shrinking sizes: each pass leaves buffers of another
    // shape (or another model's) behind, and none of it may show.
    ForwardScratch scratch;
    RecBatch batch;
    for (ModelId id : allModelIds()) {
        const RecModel model(modelConfig(id), 11, ModelScale::tiny());
        Rng rng(23);
        for (size_t size : {7, 64, 1, 100, 3}) {
            model.makeBatch(size, rng, batch);
            const Tensor& reused = model.forward(batch, scratch);
            const Tensor fresh = model.forward(batch);
            EXPECT_EQ(&reused, &scratch.out);
            EXPECT_TRUE(sameDense(reused, fresh))
                << modelName(id) << " size " << size;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelZoo, ::testing::ValuesIn(allModelIds()),
    [](const ::testing::TestParamInfo<ModelId>& info) {
        std::string name = modelName(info.param);
        for (char& c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(RecModel, SequenceFlopsOnlyForSequenceModels)
{
    const RecModel ncf(modelConfig(ModelId::Ncf), 1, ModelScale::tiny());
    EXPECT_EQ(ncf.sequenceFlopsPerSample(), 0u);
    const RecModel din(modelConfig(ModelId::Din), 1, ModelScale::tiny());
    EXPECT_GT(din.attentionFlopsPerSample(), 0u);
    EXPECT_EQ(din.recurrentFlopsPerSample(), 0u);
    const RecModel dien(modelConfig(ModelId::Dien), 1, ModelScale::tiny());
    EXPECT_GT(dien.recurrentFlopsPerSample(), 0u);
}

TEST(RecModel, DlrmConcatenatesSumPooledTables)
{
    // Table I: DLRM pools each multi-hot table by sum, then the
    // dense-stack output and the per-table vectors concatenate into
    // the predictor input: 32 + 8 * 32.
    const RecModel rmc1(modelConfig(ModelId::DlrmRmc1), 1,
                        ModelScale::tiny());
    EXPECT_EQ(rmc1.interactionWidth(), 32u + 8u * 32u);
}

TEST(RecModel, WndBypassesDenseStack)
{
    const ModelConfig cfg = modelConfig(ModelId::WideAndDeep);
    EXPECT_TRUE(cfg.denseFcDims.empty());
    EXPECT_GT(cfg.denseInputDim, 0u);
    const RecModel wnd(cfg, 1, ModelScale::tiny());
    // Raw dense width + per-table embedding width.
    EXPECT_EQ(wnd.interactionWidth(),
              cfg.denseInputDim + cfg.numTables * cfg.embeddingDim);
}

TEST(RecModel, DenseInputsAreTheStreamsNormalDrawsInOrder)
{
    // makeBatch draws the dense block first, one normal per element in
    // row-major order: a fill that moved the order would move every
    // pinned output.
    const RecModel rmc1(modelConfig(ModelId::DlrmRmc1), 1,
                        ModelScale::tiny());
    Rng rng(29);
    const RecBatch batch = rmc1.makeBatch(5, rng);
    ASSERT_EQ(batch.dense.numel(), 5 * rmc1.config().denseInputDim);
    Rng want(29);
    for (size_t i = 0; i < batch.dense.numel(); i++) {
        ASSERT_EQ(batch.dense.data()[i],
                  static_cast<float>(want.normal(0.0, 1.0)))
            << "element " << i;
    }
}

TEST(RecModel, LogicalEmbeddingBytesExceedPhysical)
{
    // DIN's behavior table has 1e8 logical rows; tiny scale keeps
    // physical rows capped yet logical accounting intact.
    const RecModel din(modelConfig(ModelId::Din), 1, ModelScale::tiny());
    EXPECT_GT(din.logicalEmbeddingBytes(),
              10ull * 1024 * 1024 * 1024 / 4);  // > 2.5 GB
}

TEST(RecModelDeath, TableBeyond32BitIndicesIsAConfigError)
{
    ModelConfig regular = modelConfig(ModelId::DlrmRmc1);
    regular.tableRows = uint64_t{UINT32_MAX} + 1;
    EXPECT_DEATH(RecModel(regular, 1, ModelScale::tiny()),
                 "32-bit lookup indices");
    ModelConfig behaviors = modelConfig(ModelId::Din);
    behaviors.behaviorTableRows = uint64_t{UINT32_MAX} + 1;
    EXPECT_DEATH(RecModel(behaviors, 1, ModelScale::tiny()),
                 "32-bit lookup indices");
    // The largest 32-bit table still builds.
    behaviors.behaviorTableRows = UINT32_MAX;
    EXPECT_EQ(RecModel(behaviors, 1, ModelScale::tiny())
                  .config()
                  .behaviorTableRows,
              UINT32_MAX);
}

TEST(RecModel, MultiTaskSharesTrunk)
{
    // MT-WnD adds task heads, not whole towers: its per-sample FLOPs
    // exceed WnD's by under 5%.
    const RecModel wnd(modelConfig(ModelId::WideAndDeep), 1,
                       ModelScale::tiny());
    const RecModel mt(modelConfig(ModelId::MtWideAndDeep), 1,
                      ModelScale::tiny());
    EXPECT_GT(mt.denseFlopsPerSample(), wnd.denseFlopsPerSample());
    EXPECT_LT(static_cast<double>(mt.denseFlopsPerSample()),
              static_cast<double>(wnd.denseFlopsPerSample()) * 1.05);
}

} // namespace
} // namespace deeprecsys
