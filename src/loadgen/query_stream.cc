#include "query_stream.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/logging.hh"
#include "base/thread_pool.hh"

namespace deeprecsys {

QueryStream::QueryStream(const LoadSpec& spec)
    : spec_(spec), arrivals(spec.qps, spec.arrivalSeed),
      sizes(QuerySizeDistribution::byKind(spec.sizes, spec.sizeSeed))
{
}

QueryTrace
QueryStream::generate(size_t count)
{
    QueryTrace trace;
    trace.reserve(count);
    for (size_t i = 0; i < count; i++) {
        clock += arrivals.nextGap();
        Query q;
        q.id = nextId++;
        q.arrivalSeconds = clock;
        q.size = sizes.sample();
        trace.push_back(q);
    }
    return trace;
}

TraceTemplate::TraceTemplate(const LoadSpec& spec)
    : spec_(spec), arrivals(1.0, spec.arrivalSeed),
      sizeDist(QuerySizeDistribution::byKind(spec.sizes, spec.sizeSeed))
{
}

void
TraceTemplate::ensure(size_t count)
{
    const size_t drawn = unitGaps.size();
    if (count <= drawn)
        return;
    // Reserved first, so that growth allocates exactly count rather
    // than resize's doubling: the benchmark gates peak memory.
    unitGaps.reserve(count);
    unitGaps.resize(count);
    sizes.reserve(count);
    sizes.resize(count);
    // The gaps and the sizes come from generators of their own, so the
    // two streams draw in parallel.
    ThreadPool::shared().parallelFor(2, [&](size_t stream) {
        for (size_t i = drawn; i < count; i++) {
            if (stream == 0)
                unitGaps[i] = arrivals.nextGap();
            else
                sizes[i] = sizeDist.sample();
        }
    });
}

QueryTrace
TraceTemplate::materialize(double qps, size_t count) const
{
    drs_assert(count <= unitGaps.size(),
               "materialize beyond the drawn template; call ensure()");
    QueryTrace trace;
    trace.reserve(count);
    double clock = 0.0;
    for (size_t i = 0; i < count; i++) {
        // Same floating-point op sequence as generate() at this rate:
        // gap(1.0) is the dividend ArrivalProcess would divide by the
        // rate, so gap(1.0) / qps is bit-identical to its nextGap().
        clock += unitGaps[i] / qps;
        Query q;
        q.id = static_cast<uint64_t>(i);
        q.arrivalSeconds = clock;
        q.size = sizes[i];
        trace.push_back(q);
    }
    return trace;
}

QueryTrace
TraceTemplate::materializeDiurnal(double mean_qps,
                                  const DiurnalProfile& profile,
                                  size_t count) const
{
    drs_assert(count <= unitGaps.size(),
               "materialize beyond the drawn template; call ensure()");
    drs_assert(mean_qps > 0.0, "mean rate must be positive");
    // A flat profile must reproduce the homogeneous path bit-for-bit
    // (same accumulation order), so it takes that path literally.
    if (profile.swingAmplitude() == 0.0)
        return materialize(mean_qps, count);

    QueryTrace trace;
    trace.reserve(count);
    // Inversion of the cumulative-arrivals integral: query i arrives
    // at the t solving profile.cumulativeSeconds(t) = u_i, where u_i
    // accumulates the template's unit gaps at the mean rate. Newton
    // from the previous arrival converges in a couple of steps — the
    // integrand (the multiplier) is smooth and bounded away from 0.
    const double min_mult = 1.0 - profile.swingAmplitude();
    double u = 0.0;
    double t = 0.0;
    for (size_t i = 0; i < count; i++) {
        u += unitGaps[i] / mean_qps;
        // First step overshoots conservatively using the trough rate,
        // keeping the iterate on the near side of the root.
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

namespace {

/** SplitMix64 finalizer: a statistically strong stateless mix. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

uint64_t
modelSubstreamSeed(uint64_t base_seed, uint32_t model)
{
    // Model 0 IS the historical single-model stream; everyone else
    // gets a splitmix64-derived substream far from the base seed and
    // from each other.
    if (model == 0)
        return base_seed;
    return mix64(base_seed ^
                 (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(model) + 1)));
}

std::vector<size_t>
splitCountByFraction(const std::vector<double>& fractions, size_t count)
{
    drs_assert(!fractions.empty(), "a mix needs at least one model");
    double sum = 0.0;
    for (double f : fractions) {
        drs_assert(f >= 0.0, "traffic fractions must be non-negative");
        sum += f;
    }
    drs_assert(std::abs(sum - 1.0) <= 1e-9,
               "traffic fractions must sum to 1");
    std::vector<size_t> counts(fractions.size());
    // (fractional part, index) pairs; the leftover queries go to the
    // largest remainders, ties to the lowest index (stable sort on a
    // strictly-greater comparator keeps index order within ties).
    std::vector<std::pair<double, size_t>> remainder;
    remainder.reserve(fractions.size());
    size_t assigned = 0;
    for (size_t k = 0; k < fractions.size(); k++) {
        const double exact = fractions[k] * static_cast<double>(count);
        counts[k] = static_cast<size_t>(std::floor(exact));
        if (counts[k] > count)
            counts[k] = count;
        assigned += counts[k];
        remainder.emplace_back(exact - static_cast<double>(counts[k]), k);
    }
    std::stable_sort(remainder.begin(), remainder.end(),
                     [](const std::pair<double, size_t>& a,
                        const std::pair<double, size_t>& b) {
                         return a.first > b.first;
                     });
    drs_assert(assigned <= count, "largest-remainder overflow");
    for (size_t i = 0; i < count - assigned; i++)
        counts[remainder[i % remainder.size()].second]++;
    return counts;
}

MixedTraceTemplate::MixedTraceTemplate(const LoadSpec& base,
                                       const std::vector<double>& fractions)
    : fractions_(fractions)
{
    if (fractions_.size() > kMaxMixModels)
        drs_fatal("a mix of ", fractions_.size(), " models exceeds the ",
                  kMaxMixModels, " a query can name");
    // Validate the fractions eagerly (same rules as the splitter).
    (void)splitCountByFraction(fractions_, 0);
    perModel.reserve(fractions_.size());
    for (uint32_t k = 0; k < fractions_.size(); k++) {
        LoadSpec spec = base;
        spec.arrivalSeed = modelSubstreamSeed(base.arrivalSeed, k);
        spec.sizeSeed = modelSubstreamSeed(base.sizeSeed, k);
        perModel.emplace_back(spec);
    }
}

void
MixedTraceTemplate::ensure(size_t count)
{
    const auto counts = splitCountByFraction(fractions_, count);
    // The models' templates are independent, so they draw in parallel.
    ThreadPool::shared().parallelFor(perModel.size(), [&](size_t k) {
        perModel[k].ensure(counts[k]);
    });
}

size_t
MixedTraceTemplate::countOfModel(uint32_t model, size_t total) const
{
    drs_assert(model < fractions_.size(), "model out of mix range");
    return splitCountByFraction(fractions_, total)[model];
}

QueryTrace
MixedTraceTemplate::materialize(double qps, size_t count) const
{
    const auto counts = splitCountByFraction(fractions_, count);
    // Each model re-times its own independent stream at its share of
    // the total rate; fraction 1.0 * qps is exact, so a 1-model mix
    // takes the single-model template's bit pattern literally.
    std::vector<QueryTrace> parts(perModel.size());
    for (uint32_t k = 0; k < perModel.size(); k++)
        parts[k] = perModel[k].materialize(fractions_[k] * qps, counts[k]);
    // One model is its own merge: model 0 keeps plain ids.
    if (parts.size() == 1)
        return std::move(parts[0]);

    // K-way merge by arrival time, ties to the lower model index —
    // a deterministic total order.
    QueryTrace out;
    out.reserve(count);
    std::vector<size_t> pos(parts.size(), 0);
    while (out.size() < count) {
        size_t best = SIZE_MAX;
        for (size_t k = 0; k < parts.size(); k++) {
            if (pos[k] >= parts[k].size())
                continue;
            if (best == SIZE_MAX ||
                parts[k][pos[k]].arrivalSeconds <
                    parts[best][pos[best]].arrivalSeconds)
                best = k;
        }
        drs_assert(best != SIZE_MAX, "mixed merge ran dry");
        Query q = parts[best][pos[best]++];
        // Per-model ids are strided so a model's id sequence (and the
        // shard tables, retry jitter, and classes hashed off it)
        // never shifts when the mix changes; model 0 keeps plain ids.
        q.model = static_cast<uint16_t>(best);
        q.id += static_cast<uint64_t>(best) * kMixedQueryIdStride;
        out.push_back(q);
    }
    return out;
}

void
assignPriorityClasses(QueryTrace& trace, uint32_t classes, uint64_t seed)
{
    validatePriorityClassCount(classes);
    for (Query& q : trace)
        q.priorityClass =
            static_cast<uint16_t>(mix64(q.id ^ seed) % classes);
}

void
validatePriorityClassCount(uint64_t classes)
{
    if (classes < 1 || classes > kMaxPriorityClasses)
        drs_fatal("priority class count ", classes, " is outside 1..",
                  kMaxPriorityClasses);
}

double
retryDelaySeconds(double base, double factor, double jitter_fraction,
                  double retry_after_hint, uint64_t query_id,
                  uint32_t attempt)
{
    drs_assert(base > 0.0 && factor >= 1.0 && jitter_fraction >= 0.0,
               "retry backoff parameters out of range");
    double backoff = base;
    for (uint32_t a = 0; a < attempt; a++)
        backoff *= factor;
    const double delay = std::max(backoff, retry_after_hint);
    // 53-bit mantissa draw from the hash, as Rng::uniform does from
    // its state word: uniform in [0, 1).
    const double u = static_cast<double>(
                         mix64(query_id * 0x9e3779b97f4a7c15ULL + attempt) >>
                         11) *
        0x1.0p-53;
    return delay * (1.0 + jitter_fraction * u);
}

} // namespace deeprecsys
