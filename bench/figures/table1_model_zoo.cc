/**
 * @file
 * Reproduces Table I: architectural features of the eight
 * recommendation models, augmented with the derived resource profile
 * (FLOPs, embedding traffic, logical table storage) each configuration
 * implies.
 */

#include <sstream>

#include "bench/bench_common.hh"
#include "costmodel/model_profile.hh"

using namespace deeprecsys;

namespace {

std::string
dimsToString(const std::vector<size_t>& dims)
{
    if (dims.empty())
        return "-";
    std::ostringstream oss;
    for (size_t i = 0; i < dims.size(); i++) {
        if (i)
            oss << "-";
        oss << dims[i];
    }
    return oss.str();
}

std::string
poolingName(Pooling p)
{
    switch (p) {
      case Pooling::Sum: return "Sum";
      case Pooling::Concat: return "Concat";
      default: return "?";
    }
}

} // namespace

void
table1_model_zoo(bench::Reproduction&)
{
    printBanner(std::cout, "Table I: model zoo configurations");
    TextTable table({"Model", "Company", "Domain", "Dense-FC",
                     "Predict-FC", "Tables", "Lookups", "Pooling",
                     "SeqLen", "Tasks"});
    for (ModelId id : allModelIds()) {
        const ModelConfig cfg = modelConfig(id);
        table.addRow({cfg.name, cfg.company, cfg.domain,
                      dimsToString(cfg.denseFcDims),
                      dimsToString(cfg.predictFcDims),
                      std::to_string(cfg.numTables),
                      std::to_string(cfg.lookupsPerTable),
                      poolingName(cfg.pooling),
                      cfg.seqLen ? std::to_string(cfg.seqLen) : "-",
                      std::to_string(cfg.numTasks)});
    }
    table.print(std::cout);

    printBanner(std::cout, "Derived per-sample resource profile");
    TextTable derived({"Model", "FC MFLOPs", "Attn MFLOPs",
                       "GRU MFLOPs", "Emb KB/sample", "Input B/sample",
                       "Logical tables GB"});
    for (ModelId id : allModelIds()) {
        const ModelProfile p = ModelProfile::forModel(id);
        derived.addRow({p.name,
                        TextTable::num(p.denseFlopsPerSample / 1e6, 2),
                        TextTable::num(p.attnFlopsPerSample / 1e6, 2),
                        TextTable::num(p.recFlopsPerSample / 1e6, 2),
                        TextTable::num(p.embBytesPerSample / 1024.0, 1),
                        TextTable::num(p.inputBytesPerSample, 0),
                        TextTable::num(p.logicalEmbeddingBytes / 1e9, 2)});
    }
    derived.print(std::cout);
}
