/**
 * @file
 * Reproduces Figure 5: the query working-set-size distribution of
 * production recommendation services against the canonical lognormal
 * (and normal) assumptions — percentile table, p75 marker, and the
 * heavy-tail mass shares the scheduler exploits.
 */

#include <algorithm>
#include <numeric>

#include "bench/bench_common.hh"
#include "loadgen/distributions.hh"

using namespace deeprecsys;

namespace {

std::vector<uint32_t>
sampleSizes(SizeDistKind kind, size_t n)
{
    auto dist = QuerySizeDistribution::byKind(kind, /*seed=*/77);
    std::vector<uint32_t> sizes(n);
    for (auto& s : sizes)
        s = dist.sample();
    std::sort(sizes.begin(), sizes.end());
    return sizes;
}

uint32_t
pct(const std::vector<uint32_t>& sorted, double p)
{
    const size_t idx = std::min(
        sorted.size() - 1,
        static_cast<size_t>(p / 100.0 * sorted.size()));
    return sorted[idx];
}

} // namespace

void
fig05_query_sizes(bench::Reproduction&)
{
    constexpr size_t n = 200000;
    printBanner(std::cout, "Figure 5: query size distributions");
    TextTable table({"Distribution", "p25", "p50", "p75", "p90", "p95",
                     "p99", "max", "mean",
                     "top-25% work share"});
    for (auto kind : {SizeDistKind::Production, SizeDistKind::Lognormal,
                      SizeDistKind::Normal}) {
        const auto sizes = sampleSizes(kind, n);
        const double total =
            std::accumulate(sizes.begin(), sizes.end(), 0.0);
        const double top = std::accumulate(
            sizes.begin() + (3 * sizes.size()) / 4, sizes.end(), 0.0);
        table.addRow({sizeDistName(kind),
                      std::to_string(pct(sizes, 25)),
                      std::to_string(pct(sizes, 50)),
                      std::to_string(pct(sizes, 75)),
                      std::to_string(pct(sizes, 90)),
                      std::to_string(pct(sizes, 95)),
                      std::to_string(pct(sizes, 99)),
                      std::to_string(sizes.back()),
                      TextTable::num(total / n, 1),
                      TextTable::num(top / total * 100.0, 1) + "%"});
    }
    table.print(std::cout);

    printBanner(std::cout, "Tail CCDF: P(size >= x)");
    TextTable ccdf({"x", "production", "lognormal"});
    const auto prod = sampleSizes(SizeDistKind::Production, n);
    const auto logn = sampleSizes(SizeDistKind::Lognormal, n);
    for (uint32_t x : {100u, 200u, 300u, 400u, 500u, 700u, 900u, 1000u}) {
        auto ccdf_of = [&](const std::vector<uint32_t>& s) {
            const auto it = std::lower_bound(s.begin(), s.end(), x);
            return static_cast<double>(s.end() - it) / s.size();
        };
        ccdf.addRow({std::to_string(x),
                     TextTable::num(ccdf_of(prod) * 100.0, 2) + "%",
                     TextTable::num(ccdf_of(logn) * 100.0, 2) + "%"});
    }
    ccdf.print(std::cout);
    std::cout << "\nThe production tail carries far more mass than the\n"
                 "lognormal at equal body: the paper's heavy-tail claim.\n";
}
