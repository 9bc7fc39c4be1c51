#include "metrics.hh"

#include <cinttypes>
#include <cstdio>

#include "base/logging.hh"

namespace deeprecsys::obs {

WindowHistogram::WindowHistogram(double lo, double hi, size_t num_bins)
    : lo_(lo), hi_(hi),
      width_((hi - lo) / static_cast<double>(num_bins)),
      counts_(num_bins, 0)
{
    drs_assert(num_bins >= 1, "histogram needs at least one bin");
    drs_assert(hi > lo, "histogram range must be non-empty");
}

void
WindowHistogram::add(double value)
{
    size_t bin;
    if (value < lo_) {
        bin = 0;
    } else if (value >= hi_) {
        bin = counts_.size() - 1;
    } else {
        bin = static_cast<size_t>((value - lo_) / width_);
        // Guard the boundary rounding of the division above.
        bin = std::min(bin, counts_.size() - 1);
    }
    counts_[bin]++;
    total_++;
}

void
WindowHistogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
}

Counter&
MetricRegistry::counter(const std::string& name)
{
    const auto it = counterIndex_.find(name);
    if (it != counterIndex_.end())
        return counters_[it->second].metric;
    counterIndex_.emplace(name, counters_.size());
    counters_.push_back({name, Counter{}, {}});
    // Align with the snapshot axis: points before registration are 0.
    counters_.back().points.assign(times_.size(), 0);
    return counters_.back().metric;
}

Gauge&
MetricRegistry::gauge(const std::string& name)
{
    const auto it = gaugeIndex_.find(name);
    if (it != gaugeIndex_.end())
        return gauges_[it->second].metric;
    gaugeIndex_.emplace(name, gauges_.size());
    gauges_.push_back({name, Gauge{}, {}});
    gauges_.back().points.assign(times_.size(), 0.0);
    return gauges_.back().metric;
}

WindowHistogram&
MetricRegistry::histogram(const std::string& name, double lo, double hi,
                          size_t num_bins)
{
    const auto it = histIndex_.find(name);
    if (it != histIndex_.end())
        return hists_[it->second].metric;
    histIndex_.emplace(name, hists_.size());
    hists_.push_back({name, WindowHistogram(lo, hi, num_bins), {}});
    hists_.back().points.assign(times_.size(),
                                std::vector<uint64_t>(num_bins, 0));
    return hists_.back().metric;
}

void
MetricRegistry::snapshot(double t)
{
    drs_assert(times_.empty() || t >= times_.back(),
               "metric snapshots must be monotone in time");
    times_.push_back(t);
    for (auto& series : counters_)
        series.points.push_back(series.metric.value());
    for (auto& series : gauges_)
        series.points.push_back(series.metric.value());
    for (auto& series : hists_) {
        std::vector<uint64_t> bins(series.metric.numBins());
        for (size_t b = 0; b < bins.size(); b++)
            bins[b] = series.metric.binCount(b);
        series.points.push_back(std::move(bins));
        series.metric.reset();
    }
}

std::vector<double>
MetricRegistry::gaugePoints(const std::string& name) const
{
    const auto it = gaugeIndex_.find(name);
    return it != gaugeIndex_.end() ? gauges_[it->second].points
                                   : std::vector<double>{};
}

namespace {

/** Fixed, locale-independent formatting so output is bit-stable. */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

} // namespace

void
MetricRegistry::writeJson(std::ostream& os) const
{
    os << "{\n  \"snapshots_s\": [";
    for (size_t i = 0; i < times_.size(); i++)
        os << (i ? ", " : "") << fmtDouble(times_[i]);
    os << "],\n  \"metrics\": [";

    bool first = true;
    auto begin_metric = [&](const std::string& name, const char* type) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    {\"name\": \"" << name << "\", \"type\": \"" << type
           << "\", ";
    };

    for (const auto& series : counters_) {
        begin_metric(series.name, "counter");
        os << "\"points\": [";
        for (size_t i = 0; i < series.points.size(); i++)
            os << (i ? ", " : "") << series.points[i];
        os << "]}";
    }
    for (const auto& series : gauges_) {
        begin_metric(series.name, "gauge");
        os << "\"points\": [";
        for (size_t i = 0; i < series.points.size(); i++)
            os << (i ? ", " : "") << fmtDouble(series.points[i]);
        os << "]}";
    }
    for (const auto& series : hists_) {
        begin_metric(series.name, "histogram");
        os << "\"lo\": " << fmtDouble(series.metric.lo())
           << ", \"hi\": " << fmtDouble(series.metric.hi())
           << ", \"bins\": " << series.metric.numBins()
           << ", \"points\": [";
        for (size_t i = 0; i < series.points.size(); i++) {
            os << (i ? ", " : "") << "[";
            const std::vector<uint64_t>& bins = series.points[i];
            for (size_t b = 0; b < bins.size(); b++)
                os << (b ? ", " : "") << bins[b];
            os << "]";
        }
        os << "]}";
    }
    os << (first ? "" : "\n  ") << "]\n}\n";
}

} // namespace deeprecsys::obs
