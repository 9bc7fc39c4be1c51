/**
 * @file
 * google-benchmark microbenchmarks for the NN substrate kernels that
 * the serving stack executes: FC/GEMM, embedding-bag gathers,
 * attention scoring, GRU steps, and whole-model forward passes. These
 * are the measurements that back the cost-model calibration. Each
 * kernel writes into outputs reused across iterations, as the serving
 * workers do, so the allocator is not timed.
 *
 * Host-measured lines: see its entry in tools/outputs.json.
 */

#include <benchmark/benchmark.h>

#include "models/rec_model.hh"
#include "nn/attention.hh"
#include "nn/embedding.hh"
#include "nn/gru.hh"
#include "nn/mlp.hh"

using namespace deeprecsys;

namespace {

void
BM_FcLayer(benchmark::State& state)
{
    const size_t batch = state.range(0);
    const size_t width = state.range(1);
    Rng rng(1);
    FcLayer layer(width, width, Activation::Relu, rng);
    Tensor x = Tensor::mat(batch, width);
    for (size_t i = 0; i < x.numel(); i++)
        x.at(i) = static_cast<float>(rng.uniform(-1.0, 1.0));
    Tensor out;
    for (auto _ : state) {
        layer.forward(x, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["GFLOP/s"] = benchmark::Counter(
        static_cast<double>(layer.flopsPerSample()) * batch *
            state.iterations() / 1e9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FcLayer)
    ->Args({1, 256})
    ->Args({16, 256})
    ->Args({64, 256})
    ->Args({256, 256})
    ->Args({64, 1024});

void
BM_EmbeddingBagSum(benchmark::State& state)
{
    const size_t batch = state.range(0);
    const size_t lookups = state.range(1);
    Rng rng(2);
    EmbeddingTable table(1ull << 20, 32, rng, 1ull << 17);
    const SparseBatch sparse =
        SparseBatch::uniform(batch, lookups, table.logicalRows(), rng);
    Tensor out = Tensor::mat(batch, 32);
    for (auto _ : state) {
        table.bagForward(sparse, Pooling::Sum, out.data(), 32);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.counters["GB/s"] = benchmark::Counter(
        static_cast<double>(batch) * lookups * 32 * sizeof(float) *
            state.iterations() / 1e9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EmbeddingBagSum)
    ->Args({1, 80})
    ->Args({16, 80})
    ->Args({64, 80})
    ->Args({256, 80})
    ->Args({64, 20});

void
BM_AttentionPool(benchmark::State& state)
{
    const size_t batch = state.range(0);
    const size_t seq = state.range(1);
    Rng rng(3);
    LocalActivationUnit att(64, 36, rng);
    Tensor behaviors({batch, seq, 64});
    Tensor candidates = Tensor::mat(batch, 64);
    for (size_t i = 0; i < behaviors.numel(); i++)
        behaviors.at(i) = static_cast<float>(rng.uniform(-0.1, 0.1));
    Tensor out;
    AttentionScratch scratch;
    for (auto _ : state) {
        att.pool(behaviors, candidates, out, scratch);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_AttentionPool)->Args({8, 128})->Args({32, 128})->Args({8, 32});

void
BM_GruForward(benchmark::State& state)
{
    const size_t batch = state.range(0);
    const size_t seq = state.range(1);
    Rng rng(4);
    GruLayer gru(64, 64, rng);
    Tensor input({batch, seq, 64});
    for (size_t i = 0; i < input.numel(); i++)
        input.at(i) = static_cast<float>(rng.uniform(-0.1, 0.1));
    Tensor out;
    Tensor gates;
    for (auto _ : state) {
        gru.forward(input, nullptr, out, gates);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_GruForward)->Args({8, 32})->Args({32, 32});

void
BM_ModelForward(benchmark::State& state)
{
    const ModelId id = static_cast<ModelId>(state.range(0));
    const size_t batch = state.range(1);
    ModelScale scale;
    scale.maxPhysicalRows = 1ull << 14;
    const RecModel model(modelConfig(id), 5, scale);
    Rng rng(6);
    const RecBatch input = model.makeBatch(batch, rng);
    ForwardScratch scratch;
    for (auto _ : state) {
        const Tensor& out = model.forward(input, scratch);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(modelName(id));
    state.counters["us/sample"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * batch,
        benchmark::Counter::kIsRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_ModelForward)
    ->Args({static_cast<int>(ModelId::Ncf), 64})
    ->Args({static_cast<int>(ModelId::WideAndDeep), 64})
    ->Args({static_cast<int>(ModelId::DlrmRmc1), 64})
    ->Args({static_cast<int>(ModelId::DlrmRmc3), 64})
    ->Args({static_cast<int>(ModelId::Din), 16})
    ->Args({static_cast<int>(ModelId::Dien), 16});

} // namespace

BENCHMARK_MAIN();
