#include "stats.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace deeprecsys {

void
SampleStats::add(double value)
{
    samples.push_back(value);
    total += value;
}

void
SampleStats::addAll(const std::vector<double>& values)
{
    if (values.empty())
        return;
    samples.reserve(samples.size() + values.size());
    samples.insert(samples.end(), values.begin(), values.end());
    // Same accumulation order as per-element add(), so totals stay
    // bit-identical to the historical loop.
    for (double v : values)
        total += v;
}

double
SampleStats::mean() const
{
    return samples.empty() ? 0.0 : total / static_cast<double>(samples.size());
}

double
SampleStats::percentile(double p) const
{
    drs_assert(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    if (samples.empty())
        return 0.0;
    if (samples.size() == 1)
        return samples.front();
    const double rank = (p / 100.0) * static_cast<double>(samples.size() - 1);
    const size_t lo_idx = static_cast<size_t>(std::floor(rank));
    const double frac = rank - static_cast<double>(lo_idx);
    // The order statistic at lo_idx by selection, and the next one
    // (itself at the top rank) as the least value selection left
    // above it.
    std::vector<double> scratch = samples;
    const auto lo = scratch.begin() + static_cast<std::ptrdiff_t>(lo_idx);
    std::nth_element(scratch.begin(), lo, scratch.end());
    const double hi = lo + 1 == scratch.end()
        ? *lo
        : *std::min_element(lo + 1, scratch.end());
    return *lo * (1.0 - frac) + hi * frac;
}

void
SampleStats::clear()
{
    samples.clear();
    total = 0.0;
}

} // namespace deeprecsys
