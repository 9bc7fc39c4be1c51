/**
 * @file
 * Reproduces Figure 3: operator runtime breakdown of every model at
 * batch size 64, measured from real kernel execution of the model zoo
 * (not the analytical model). DLRM-class models should be dominated
 * by embedding lookups, WnD/NCF/RMC3 by FC, DIN by attention+
 * embedding, DIEN by recurrent layers.
 *
 * Host-measured lines: see its entry in tools/outputs.json.
 */

#include "bench/bench_common.hh"
#include "models/rec_model.hh"

using namespace deeprecsys;

int
main()
{
    printBanner(std::cout,
                "Figure 3: measured operator breakdown at batch 64");
    TextTable table({"Model", "FC", "Embedding", "Interaction",
                     "Attention", "Recurrent", "Dominant"});

    for (ModelId id : allModelIds()) {
        // Enough physical rows that embedding gathers leave the cache
        // hierarchy, as they do at production table sizes.
        ModelScale scale;
        scale.maxPhysicalRows = 1ull << 15;
        const RecModel model(modelConfig(id), /*seed=*/17, scale);
        Rng rng(23);
        const OperatorStats stats = model.measureBreakdown(64, 3, rng);

        auto pct = [&](OpClass c) {
            return TextTable::num(stats.fraction(c) * 100.0, 1) + "%";
        };
        table.addRow({modelName(id), pct(OpClass::Fc),
                      pct(OpClass::Embedding), pct(OpClass::Interaction),
                      pct(OpClass::Attention), pct(OpClass::Recurrent),
                      opClassName(stats.dominant())});
    }
    table.print(std::cout);
    std::cout << "\nNote: production embedding tables are tens of GB; the\n"
                 "scaled-down resident tables here understate embedding\n"
                 "time relative to the paper's Figure 3.\n";
    return 0;
}
