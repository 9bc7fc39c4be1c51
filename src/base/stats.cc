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
    sortedValid = false;
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
    sortedValid = false;
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
    ensureSorted();
    if (sorted.empty())
        return 0.0;
    if (sorted.size() == 1)
        return sorted.front();
    const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
    const size_t lo_idx = static_cast<size_t>(std::floor(rank));
    const size_t hi_idx = std::min(lo_idx + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo_idx);
    return sorted[lo_idx] * (1.0 - frac) + sorted[hi_idx] * frac;
}

void
SampleStats::clear()
{
    samples.clear();
    sorted.clear();
    sortedValid = true;
    total = 0.0;
}

void
SampleStats::ensureSorted() const
{
    if (!sortedValid) {
        sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        sortedValid = true;
    }
}

} // namespace deeprecsys
