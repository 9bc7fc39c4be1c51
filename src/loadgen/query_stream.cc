#include "query_stream.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "base/logging.hh"
#include "base/thread_pool.hh"

namespace deeprecsys {

namespace {

void
requirePositiveRate(double qps)
{
    if (!(qps > 0.0))
        drs_fatal("a trace's arrival rate must be positive, got ", qps,
                  " q/s");
}

} // namespace

TraceTemplate::TraceTemplate(const LoadSpec& spec)
    : spec_(spec), arrivals(spec.arrivalSeed),
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
TraceTemplate::materialize(double qps, size_t count, size_t first,
                           double start_seconds) const
{
    drs_assert(first + count <= unitGaps.size(),
               "materialize beyond the drawn template; call ensure()");
    requirePositiveRate(qps);
    QueryTrace trace;
    trace.reserve(count);
    double clock = start_seconds;
    for (size_t i = first; i < first + count; i++) {
        clock += unitGaps[i] / qps;
        Query q;
        q.id = static_cast<uint64_t>(i);
        q.arrivalSeconds = clock;
        q.size = sizes[i];
        trace.push_back(q);
    }
    return trace;
}

QueryStream::QueryStream(const LoadSpec& spec) : population(spec)
{
    requirePositiveRate(spec.qps);
}

QueryTrace
QueryStream::generate(size_t count)
{
    const size_t first = population.size();
    population.ensure(first + count);
    QueryTrace trace =
        population.materialize(spec().qps, count, first, clock);
    if (!trace.empty())
        clock = trace.back().arrivalSeconds;
    return trace;
}

namespace {

/**
 * Newton's method on C(t) = u, with C = profile.cumulativeSeconds, from
 * @p t, whose cumulative the caller passes in @p ct. Leaves t at the
 * last iterate and ct at C(t): the last call of C was at that t.
 */
void
solveCumulative(const DiurnalProfile& profile, double min_mult, double u,
                double& t, double& ct)
{
    // C' >= min_mult, so the first step, taken at the trough rate,
    // lands at or beyond the root.
    double step = (u - ct) / min_mult;
    for (int iter = 0; iter < 24 && step != 0.0; iter++) {
        t += step;
        ct = profile.cumulativeSeconds(t);
        const double err = ct - u;
        if (std::abs(err) <= 1e-12 * (1.0 + u))
            break;
        step = -err / profile.multiplier(t);
    }
}

} // namespace

QueryTrace
TraceTemplate::materializeDiurnal(double mean_qps,
                                  const DiurnalProfile& profile,
                                  size_t count) const
{
    drs_assert(count <= unitGaps.size(),
               "materialize beyond the drawn template; call ensure()");
    if (!(mean_qps > 0.0))
        drs_fatal("a diurnal day's mean rate must be positive, got ",
                  mean_qps, " q/s");
    // A flat profile must reproduce the homogeneous path bit-for-bit
    // (same accumulation order), so it takes that path literally.
    if (profile.swingAmplitude() == 0.0)
        return materialize(mean_qps, count);

    // Inversion of the cumulative-arrivals integral: query i arrives
    // at the t solving profile.cumulativeSeconds(t) = u_i, where u_i
    // accumulates the template's unit gaps at the mean rate. Newton
    // from the previous arrival converges in a couple of steps — the
    // integrand (the multiplier) is smooth and bounded away from 0.
    const double min_mult = 1.0 - profile.swingAmplitude();
    // One link of the chain: query i from the previous arrival t, with
    // ct = C(t) kept from the call that produced t. The root is
    // strictly increasing in u; the clamp (std::max(root, t), the root
    // on a tie) keeps the last-bit numerics from ever inverting two
    // arrivals. Query 0 has no previous arrival.
    auto next_arrival = [&](size_t i, double& u, double& t, double& ct) {
        u += unitGaps[i] / mean_qps;
        double root = t;
        double c_root = ct;
        solveCumulative(profile, min_mult, u, root, c_root);
        if (i == 0 || !(root < t)) {
            t = root;
            ct = c_root;
        }
        return t;
    };

    // The chain runs in chunks, as tasks. A serial pass sums the gaps
    // to u before each chunk's first query with the chain's own adds,
    // so every chunk sees the chain's u values.
    const size_t chunks = (count + kDiurnalChunk - 1) / kDiurnalChunk;
    std::vector<double> u_start(chunks, 0.0);
    double u_sum = 0.0;
    for (size_t c = 1; c < chunks; c++) {
        for (size_t i = (c - 1) * kDiurnalChunk; i < c * kDiurnalChunk; i++)
            u_sum += unitGaps[i] / mean_qps;
        u_start[c] = u_sum;
    }

    // A later chunk's previous arrival is not known yet, so it starts
    // from the root of C(t) = u_{begin-1} solved from 0: the true
    // previous arrival to within the last bits.
    QueryTrace trace(count);
    ThreadPool::shared().parallelFor(chunks, [&](size_t c) {
        const size_t begin = c * kDiurnalChunk;
        const size_t end = std::min(count, begin + kDiurnalChunk);
        double u = u_start[c];
        double t = 0.0;
        double ct = profile.cumulativeSeconds(t);
        if (c > 0)
            solveCumulative(profile, min_mult, u, t, ct);
        for (size_t i = begin; i < end; i++) {
            Query& q = trace[i];
            q.id = static_cast<uint64_t>(i);
            q.arrivalSeconds = next_arrival(i, u, t, ct);
            q.size = sizes[i];
        }
    });

    // Repair, in order: re-run each later chunk from the true previous
    // arrival until a recomputed arrival equals the speculative one
    // bit for bit. The chain's state after a query is its arrival t
    // (ct is C(t), and u is the same in both), so from there on both
    // runs apply the same function to the same state.
    for (size_t c = 1; c < chunks; c++) {
        const size_t begin = c * kDiurnalChunk;
        const size_t end = std::min(count, begin + kDiurnalChunk);
        double u = u_start[c];
        double t = trace[begin - 1].arrivalSeconds;
        double ct = profile.cumulativeSeconds(t);
        for (size_t i = begin; i < end; i++) {
            const double arrival = next_arrival(i, u, t, ct);
            if (std::bit_cast<uint64_t>(arrival) ==
                std::bit_cast<uint64_t>(trace[i].arrivalSeconds))
                break;
            trace[i].arrivalSeconds = arrival;
        }
    }
    return trace;
}

uint64_t
modelSubstreamSeed(uint64_t base_seed, uint32_t model)
{
    // Model 0 IS the historical single-model stream; everyone else
    // gets a splitmix64-derived substream far from the base seed and
    // from each other.
    if (model == 0)
        return base_seed;
    return mix64(base_seed ^
                 (kGoldenGamma * (static_cast<uint64_t>(model) + 1)));
}

std::vector<size_t>
splitCountByFraction(const std::vector<double>& fractions, size_t count)
{
    if (fractions.empty())
        drs_fatal("a mix needs at least one model");
    double sum = 0.0;
    for (size_t k = 0; k < fractions.size(); k++) {
        if (!(fractions[k] >= 0.0))
            drs_fatal("traffic fraction ", k, " is ", fractions[k],
                      "; fractions must be non-negative");
        sum += fractions[k];
    }
    if (!(std::abs(sum - 1.0) <= 1e-9))
        drs_fatal("traffic fractions sum to ", sum, ", not 1");
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
    if (!(qps > 0.0))
        drs_fatal("a mixed trace's arrival rate must be positive, got ",
                  qps, " q/s");
    const auto counts = splitCountByFraction(fractions_, count);
    // Each model re-times its own independent stream at its share of
    // the total rate; fraction 1.0 * qps is exact, so a 1-model mix
    // takes the single-model template's bit pattern literally. A model
    // with no queries (a zero fraction) keeps an empty part.
    std::vector<QueryTrace> parts(perModel.size());
    for (uint32_t k = 0; k < perModel.size(); k++) {
        if (counts[k] > 0)
            parts[k] =
                perModel[k].materialize(fractions_[k] * qps, counts[k]);
    }
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
retryDelaySeconds(double retry_after_hint, uint64_t query_id,
                  uint32_t attempt)
{
    double backoff = kRetryBackoffSeconds;
    for (uint32_t a = 0; a < attempt; a++)
        backoff *= kRetryBackoffFactor;
    const double delay = std::max(backoff, retry_after_hint);
    // 53-bit mantissa draw from the hash, as Rng::uniform does from
    // its state word: uniform in [0, 1).
    const double u = static_cast<double>(
                         mix64(query_id * kGoldenGamma + attempt) >>
                         11) *
        0x1.0p-53;
    return delay * (1.0 + kRetryJitterFraction * u);
}

} // namespace deeprecsys
