/**
 * @file
 * Reproduces Figure 1: (a) roofline placement of the recommendation
 * models — arithmetic intensity vs attainable performance on Skylake —
 * against CNN/RNN reference points, and (b) the memory-access
 * breakdown between dense (MLP weights/activations) and sparse
 * (embedding gather) traffic that drives the paper's model-level
 * heterogeneity argument.
 */

#include "bench/bench_common.hh"
#include "costmodel/cpu_cost.hh"
#include "costmodel/model_profile.hh"

using namespace deeprecsys;

void
fig01_characterization(bench::Reproduction&)
{
    const CpuPlatform skl = CpuPlatform::skylake();
    const double peak = skl.peakCoreFlops();
    const double bw = 6.0e9;    // single-core gather/stream bandwidth
    constexpr double batch = 64.0;

    printBanner(std::cout,
                "Figure 1(a): roofline placement at batch 64 (Skylake core)");
    TextTable roofline({"Workload", "FLOPs/sample", "Bytes/sample",
                        "Intensity (F/B)", "Attainable GFLOP/s",
                        "Bound"});

    auto add_point = [&](const std::string& name, double flops,
                         double bytes) {
        const double intensity = flops / bytes;
        const double attainable = std::min(peak, intensity * bw);
        roofline.addRow({name, TextTable::num(flops / 1e6, 2) + "M",
                         TextTable::num(bytes / 1024.0, 1) + "K",
                         TextTable::num(intensity, 2),
                         TextTable::num(attainable / 1e9, 1),
                         intensity * bw < peak ? "memory" : "compute"});
    };

    for (ModelId id : allModelIds()) {
        const ModelProfile p = ModelProfile::forModel(id);
        const double flops = p.flops(1.0);
        const double bytes =
            p.embBytesPerSample + p.denseParamBytes / batch +
            p.inputBytesPerSample;
        add_point(p.name, flops, bytes);
    }
    // Reference points: ResNet-50 (~4 GFLOPs, ~100 MB weights but high
    // reuse => intensity ~35) and DeepSpeech2-style RNN (low reuse).
    add_point("ResNet50(ref)", 4.0e9, 4.0e9 / 35.0);
    add_point("DeepSpeech2(ref)", 1.0e9, 1.0e9 / 4.0);
    roofline.print(std::cout);

    printBanner(std::cout,
                "Figure 1(b): memory access breakdown (dense vs sparse)");
    TextTable mem({"Model", "Dense bytes/sample", "Sparse bytes/sample",
                   "Sparse fraction", "Regime"});
    for (ModelId id : allModelIds()) {
        const ModelProfile p = ModelProfile::forModel(id);
        const double dense = p.denseParamBytes / batch +
                             p.inputBytesPerSample;
        const double sparse = p.embBytesPerSample;
        const double frac = sparse / (sparse + dense);
        mem.addRow({p.name, TextTable::num(dense, 0),
                    TextTable::num(sparse, 0), TextTable::num(frac, 2),
                    frac > 0.5 ? "sparse-dominated"
                               : "dense-dominated"});
    }
    mem.print(std::cout);
}
