#include "distributions.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace deeprecsys {

ArrivalProcess::ArrivalProcess(double qps, uint64_t seed)
    : rate(qps), rng(seed)
{
    drs_assert(qps > 0.0, "arrival rate must be positive");
}

double
ArrivalProcess::nextGap()
{
    return rng.exponential(rate);
}

const char*
sizeDistName(SizeDistKind kind)
{
    switch (kind) {
      case SizeDistKind::Production: return "production";
      case SizeDistKind::Lognormal: return "lognormal";
      case SizeDistKind::Normal: return "normal";
      default: return "unknown";
    }
}

namespace {

// Body of the production distribution: median 60 items, sigma 0.8.
constexpr double prodBodyMu = 4.0943445622221; // ln(60)
constexpr double prodBodySigma = 0.8;
// Pareto tail: 20% of queries, scale 150 items, shape 1.3. A shape
// below 2 gives the infinite-variance-style heavy tail whose top
// quartile carries ~half of all scored items (Figure 6 property).
constexpr double prodTailWeight = 0.2;
constexpr double prodTailScale = 150.0;
constexpr double prodTailShape = 1.3;

} // namespace

QuerySizeDistribution::QuerySizeDistribution(SizeDistKind kind,
                                             uint64_t seed, double a,
                                             double b)
    : kind_(kind), rng(seed), paramA(a), paramB(b)
{
}

QuerySizeDistribution
QuerySizeDistribution::production(uint64_t seed)
{
    return {SizeDistKind::Production, seed, prodBodyMu, prodBodySigma};
}

QuerySizeDistribution
QuerySizeDistribution::lognormal(uint64_t seed)
{
    return {SizeDistKind::Lognormal, seed, prodBodyMu, prodBodySigma};
}

QuerySizeDistribution
QuerySizeDistribution::normal(uint64_t seed, double mean, double stddev)
{
    return {SizeDistKind::Normal, seed, mean, stddev};
}

QuerySizeDistribution
QuerySizeDistribution::byKind(SizeDistKind kind, uint64_t seed)
{
    switch (kind) {
      case SizeDistKind::Production: return production(seed);
      case SizeDistKind::Lognormal: return lognormal(seed);
      case SizeDistKind::Normal: return normal(seed);
      default: drs_panic("unknown size distribution kind");
    }
}

uint32_t
QuerySizeDistribution::sample()
{
    double value = 1.0;
    switch (kind_) {
      case SizeDistKind::Production:
        if (rng.uniform() < prodTailWeight)
            value = rng.pareto(prodTailScale, prodTailShape);
        else
            value = rng.lognormal(paramA, paramB);
        break;
      case SizeDistKind::Lognormal:
        value = rng.lognormal(paramA, paramB);
        break;
      case SizeDistKind::Normal:
        value = rng.normal(paramA, paramB);
        break;
      default:
        drs_panic("unknown size distribution kind");
    }
    value = std::clamp(value, 1.0, static_cast<double>(maxSize));
    return static_cast<uint32_t>(std::lround(value));
}

DiurnalProfile::DiurnalProfile(double peak_to_trough, double period_seconds)
    : amplitude((peak_to_trough - 1.0) / (peak_to_trough + 1.0)),
      period(period_seconds)
{
    drs_assert(peak_to_trough >= 1.0, "peak/trough ratio must be >= 1");
    drs_assert(period_seconds > 0.0, "profile period must be positive");
}

double
DiurnalProfile::multiplier(double t_seconds) const
{
    return 1.0 + amplitude * std::sin(2.0 * M_PI * t_seconds / period);
}

double
DiurnalProfile::cumulativeSeconds(double t_seconds) const
{
    // Closed form of the sinusoid's integral; the cosine term
    // vanishes at whole periods, recovering the mean-1 property.
    const double phase = 2.0 * M_PI * t_seconds / period;
    return t_seconds +
           amplitude * period / (2.0 * M_PI) * (1.0 - std::cos(phase));
}

} // namespace deeprecsys
