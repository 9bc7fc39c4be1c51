#include "bench.hh"

#include <sys/resource.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "base/logging.hh"
#include "obs/trace_json.hh"

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void
releaseFreeMemory()
{
#ifdef __GLIBC__
    malloc_trim(0);
#endif
}

uint64_t
Options::subSeed(uint64_t salt) const
{
    // splitmix64 finalizer: independent streams per salt.
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
Digest::add(uint64_t v)
{
    for (int i = 0; i < 8; i++) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
}

void
Digest::add(const deeprecsys::SampleStats& stats)
{
    add(static_cast<uint64_t>(stats.count()));
    for (double v : stats.raw())
        add(v);
}

std::string
Digest::hex() const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

const char*
spanName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::SetupMachines: return "setup.machines";
      case SpanKind::SetupPlacement: return "setup.placement";
      case SpanKind::SetupTrace: return "setup.trace";
      case SpanKind::SetupModel: return "setup.model";
      case SpanKind::Baseline: return "sched.baseline";
      case SpanKind::TuneCpu: return "sched.tune_cpu";
      case SpanKind::TuneGpu: return "sched.tune_gpu";
      case SpanKind::StaticRun: return "driver.static";
      case SpanKind::ElasticRun: return "driver.elastic";
      case SpanKind::RouteParts: return "routing.routeParts";
      case SpanKind::TargetMachines: return "scaling.targetMachines";
      case SpanKind::ServeRate: return "serve.rate";
      case SpanKind::ObsWrite: return "obs.write";
      case SpanKind::Rep: return "rep";
      case SpanKind::NumKinds: break;
    }
    return "unknown";
}

Tracer::Tracer() : origin_(Clock::now()) {}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

size_t
Tracer::begin(SpanKind kind, uint64_t id)
{
    Span span;
    span.kind = kind;
    span.id = id;
    span.parent = open_.empty() ? UINT32_MAX : open_.back();
    const size_t idx = spans_.size();
    open_.push_back(static_cast<uint32_t>(idx));
    span.startNs = nowNs();
    spans_.push_back(span);
    return idx;
}

void
Tracer::end(size_t idx)
{
    spans_[idx].endNs = nowNs();
    drs_assert(!open_.empty() && open_.back() == idx,
               "spans must close innermost first");
    open_.pop_back();
}

SpanTotals
Tracer::totals(size_t first) const
{
    SpanTotals out;
    std::vector<double> child(spans_.size() - first, 0.0);
    for (size_t i = first; i < spans_.size(); i++) {
        const Span& s = spans_[i];
        const double dur = 1e-9 * static_cast<double>(s.endNs - s.startNs);
        const size_t k = static_cast<size_t>(s.kind);
        out.seconds[k] += dur;
        out.count[k]++;
        if (s.parent != UINT32_MAX && s.parent >= first)
            child[s.parent - first] += dur;
    }
    for (size_t i = first; i < spans_.size(); i++) {
        const Span& s = spans_[i];
        const double dur = 1e-9 * static_cast<double>(s.endNs - s.startNs);
        out.selfSeconds[static_cast<size_t>(s.kind)] +=
            dur - child[i - first];
    }
    return out;
}

bool
Tracer::write(const std::string& path) const
{
    deeprecsys::obs::TraceEventWriter writer;
    writer.processName(0, "perfbench");
    for (const Span& s : spans_) {
        writer.complete(spanName(s.kind), "perfbench", 0, 0,
                        1e-9 * static_cast<double>(s.startNs),
                        1e-9 * static_cast<double>(s.endNs),
                        "\"id\": " + std::to_string(s.id));
    }
    std::ofstream out(path);
    writer.write(out);
    return out.good();
}

std::string
listOf(const std::vector<double>& values)
{
    std::string out;
    for (double v : values) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4g", v);
        out += (out.empty() ? "" : ", ") + std::string(buf);
    }
    return out;
}

bool
sameDigests(const RepLog& log)
{
    for (const Digest& d : log.digests) {
        if (d.value() != log.digests.front().value())
            return false;
    }
    return true;
}

double
medianTotal(const std::vector<SpanTotals>& totals, SpanKind kind)
{
    std::vector<double> v;
    for (const SpanTotals& t : totals)
        v.push_back(t.total(kind));
    return median(v);
}

double
medianSelf(const std::vector<SpanTotals>& totals, SpanKind kind)
{
    std::vector<double> v;
    for (const SpanTotals& t : totals)
        v.push_back(t.self(kind));
    return median(v);
}

void
reportSetupLayers(Report& report, const std::vector<SpanTotals>& totals)
{
    report.metric("setup.machines_s",
                  medianTotal(totals, SpanKind::SetupMachines), "s");
    report.metric("setup.placement_s",
                  medianTotal(totals, SpanKind::SetupPlacement), "s");
    report.metric("setup.trace_s",
                  medianTotal(totals, SpanKind::SetupTrace), "s");
    report.metric("setup.model_s",
                  medianTotal(totals, SpanKind::SetupModel), "s");
}

void
reportTraceOverhead(Report& report, const RepLog& log)
{
    const double untraced = median(log.walls);
    const double traced = median(log.tracedWalls);
    report.metric("trace.overhead_frac",
                  untraced > 0.0 ? traced / untraced - 1.0 : 0.0, "frac");
    report.note("tracing overhead: traced rep " + std::to_string(traced) +
                " s vs untraced rep " + std::to_string(untraced) + " s");
}

void
Report::metric(const std::string& name, double value, const char* unit)
{
    if (!std::isfinite(value)) {
        check(false, "metric " + name + " is not finite");
        value = 0.0;   // keep the JSON line valid
    }
    metrics_[name] = Value{value, unit};
}

void
Report::check(bool ok, const std::string& what, uint64_t ops)
{
    attempted_ += ops;
    if (!ok) {
        failed_ += ops;
        std::cerr << "CHECK FAILED: " << what << "\n";
    }
}

void
Report::note(const std::string& line) const
{
    std::cout << line << "\n";
}

int
Report::finish() const
{
    std::ostringstream json;
    json.precision(std::numeric_limits<double>::max_digits10);
    json << "{\"correct\": " << (correct() ? "true" : "false")
         << ", \"attempted\": " << attempted_
         << ", \"failed\": " << failed_ << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, v] : metrics_) {
        json << (first ? "" : ", ") << "\"" << name
             << "\": {\"value\": " << v.value << ", \"unit\": \""
             << v.unit << "\"}";
        first = false;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return correct() ? 0 : 1;
}

} // namespace perfbench
