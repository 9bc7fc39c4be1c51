/**
 * @file
 * The reference that TraceTemplate::materializeDiurnal's chunked,
 * repaired re-timing must reproduce bit for bit: the one serial Newton
 * chain over the whole day, as the library ran it before the chain was
 * split into tasks, kept here line for line. Header-only; each test
 * file gets its own copy.
 */

#ifndef DRS_TESTS_DIURNAL_REFERENCE_HH
#define DRS_TESTS_DIURNAL_REFERENCE_HH

#include <algorithm>
#include <cmath>
#include <vector>

#include "loadgen/query_stream.hh"

namespace deeprecsys {
namespace {

/**
 * The first @p count queries of @p tmpl re-timed under @p profile by
 * the serial chain. Redraws the template's unit gaps and sizes from
 * its spec's seeds, as TraceTemplate::ensure draws them. The profile
 * must swing (a flat one takes materialize's path instead).
 */
QueryTrace
serialDiurnalReference(const TraceTemplate& tmpl, double mean_qps,
                       const DiurnalProfile& profile, size_t count)
{
    ArrivalProcess unit(tmpl.spec().arrivalSeed);
    QuerySizeDistribution size_dist = QuerySizeDistribution::byKind(
        tmpl.spec().sizes, tmpl.spec().sizeSeed);
    std::vector<double> unitGaps(count);
    std::vector<uint32_t> sizes(count);
    for (size_t i = 0; i < count; i++) {
        unitGaps[i] = unit.nextGap();
        sizes[i] = size_dist.sample();
    }

    QueryTrace trace;
    trace.reserve(count);
    const double min_mult = 1.0 - profile.swingAmplitude();
    double u = 0.0;
    double t = 0.0;
    for (size_t i = 0; i < count; i++) {
        u += unitGaps[i] / mean_qps;
        // First step at the trough rate lands at or beyond the root.
        double step = (u - profile.cumulativeSeconds(t)) / min_mult;
        for (int iter = 0; iter < 24 && step != 0.0; iter++) {
            t += step;
            const double err = profile.cumulativeSeconds(t) - u;
            if (std::abs(err) <= 1e-12 * (1.0 + u))
                break;
            step = -err / profile.multiplier(t);
        }
        // The root is strictly increasing in u; keep the last-bit
        // numerics from ever inverting two arrivals.
        if (!trace.empty())
            t = std::max(t, trace.back().arrivalSeconds);
        Query q;
        q.id = static_cast<uint64_t>(i);
        q.arrivalSeconds = t;
        q.size = sizes[i];
        trace.push_back(q);
    }
    return trace;
}

} // namespace
} // namespace deeprecsys

#endif // DRS_TESTS_DIURNAL_REFERENCE_HH
