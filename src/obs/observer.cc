#include "observer.hh"

#include <algorithm>

#include "base/random.hh"
#include "base/table.hh"

namespace deeprecsys::obs {

bool
sampledIndex(uint64_t idx, double rate, uint64_t seed)
{
    if (rate >= 1.0)
        return true;
    if (rate <= 0.0)
        return false;
    // Compare the top 53 hash bits against the rate scaled to 2^53 —
    // the full double-precision significand, exact for any rate.
    const uint64_t h = mix64(idx ^ seed) >> 11;
    return static_cast<double>(h) < rate * 9007199254740992.0;
}

RunObserver::RunObserver(ObsConfig config, size_t num_machines)
    : cfg_(config), numMachines_(num_machines)
{
    writer_.processName(0, "router");
    for (size_t m = 0; m < numMachines_; m++)
        writer_.processName(1 + static_cast<uint32_t>(m),
                            "machine " + std::to_string(m));
}

void
RunObserver::onQueryDispatch(uint32_t size)
{
    if (!querySize_)
        querySize_ = &registry_.histogram("query_size", 0, 512, 32);
    registry_.counter("queries_dispatched").add();
    querySize_->add(size);
}

void
RunObserver::onPartDone(uint64_t idx, uint32_t machine, bool gpu,
                        const PartTimes& times)
{
    if (!queueWaitMs_) {
        queueWaitMs_ = &registry_.histogram("queue_wait_ms", 0, 50, 25);
        serviceMs_ = &registry_.histogram("service_ms", 0, 50, 25);
    }
    registry_.counter("parts_completed").add();
    queueWaitMs_->add((times.first - times.start) * 1e3);
    serviceMs_->add((times.end - times.first) * 1e3);

    if (sampledQuery(idx)) {
        const uint32_t pid = 1 + machine;
        if (times.first > times.start)
            writer_.complete("queue", "machine", pid, idx, times.start,
                             times.first);
        writer_.complete(gpu ? "gpu_service" : "service", "machine",
                         pid, idx, times.first, times.end);
    }
}

void
RunObserver::onQueryComplete(uint64_t idx, const QueryStamps& stamps,
                             uint32_t size, uint32_t fanout,
                             bool measured, double forward_s,
                             double completion_s, double back_s)
{
    const PartTimes& leader = stamps.leader;
    const PartTimes& join = stamps.join;
    const bool fan = fanout > 1;
    const bool twoStage = join.start >= 0;

    // Leader critical-path stage split (see observer.hh for the
    // bucket semantics).
    double queue = 0, service = 0;
    if (leader.start >= 0) {
        queue += leader.first - leader.start;
        service += leader.end - leader.first;
    }
    if (twoStage) {
        queue += join.first - join.start;
        service += join.end - join.first;
    }
    double joinWait = 0;
    if (fan) {
        if (twoStage)
            joinWait = std::max(0.0, join.start - leader.end);
        else
            joinWait = std::max(0.0, completion_s - (leader.end + back_s));
    }
    const double total = completion_s - stamps.dispatch;
    const double network =
        std::max(0.0, total - queue - service - joinWait);

    if (measured) {
        split_.queueSeconds += queue;
        split_.serviceSeconds += service;
        split_.networkSeconds += network;
        split_.joinWaitSeconds += joinWait;
        split_.totalSeconds += total;
        split_.queries++;
    }

    registry_.counter("queries_completed").add();

    if (sampledQuery(idx)) {
        writer_.complete("query", "router", 0, idx, stamps.dispatch,
                         completion_s,
                         "\"size\": " + std::to_string(size) +
                             ", \"fanout\": " + std::to_string(fanout));
        if (forward_s > 0)
            writer_.complete("net_fwd", "network", 0, idx, stamps.dispatch,
                             stamps.dispatch + forward_s);
        if (back_s > 0)
            writer_.complete("net_ret", "network", 0, idx,
                             completion_s - back_s, completion_s);
        if (fan && joinWait > 0) {
            const double js = twoStage ? leader.end : leader.end + back_s;
            writer_.complete("join_wait", "router", 0, idx, js,
                             js + joinWait);
        }
    }
}

void
RunObserver::onQueryDrop(uint64_t idx, double t_s, uint32_t size)
{
    registry_.counter("queries_dropped").add();
    if (sampledQuery(idx)) {
        writer_.instant("drop", "router", 0, t_s,
                        "\"query\": " + std::to_string(idx) +
                            ", \"size\": " + std::to_string(size));
    }
}

void
RunObserver::onQueryRetry(uint64_t idx, double t_s, uint32_t attempt,
                          double delay_s)
{
    registry_.counter("queries_retried").add();
    if (sampledQuery(idx)) {
        writer_.instant("retry", "router", 0, t_s,
                        "\"query\": " + std::to_string(idx) +
                            ", \"attempt\": " + std::to_string(attempt) +
                            ", \"delay_s\": " + std::to_string(delay_s));
    }
}

void
RunObserver::onQueryDegrade(uint64_t idx, double t_s, uint32_t orig_size,
                            uint32_t served_size)
{
    registry_.counter("queries_degraded").add();
    if (sampledQuery(idx)) {
        writer_.instant("degrade", "router", 0, t_s,
                        "\"query\": " + std::to_string(idx) +
                            ", \"orig_size\": " +
                            std::to_string(orig_size) +
                            ", \"served_size\": " +
                            std::to_string(served_size));
    }
}

void
RunObserver::onTablesTouched(const std::vector<uint32_t>& tables)
{
    for (uint32_t t : tables) {
        if (t >= tableLoad_.size())
            tableLoad_.resize(t + 1, nullptr);
        if (!tableLoad_[t])
            tableLoad_[t] = &registry_.counter(
                "table_load_" + std::to_string(t));
        tableLoad_[t]->add();
    }
}

void
RunObserver::onMachineDown(uint32_t machine, double t_s)
{
    registry_.counter("machines_crashed").add();
    writer_.instant("machine_down", "fault", 1 + machine, t_s,
                    "\"machine\": " + std::to_string(machine));
}

void
RunObserver::onMachineUp(uint32_t machine, double t_s)
{
    registry_.counter("machines_recovered").add();
    writer_.instant("machine_up", "fault", 1 + machine, t_s,
                    "\"machine\": " + std::to_string(machine));
}

void
RunObserver::onPartHedged(uint64_t idx, double t_s, uint32_t from_machine,
                          uint32_t to_machine)
{
    registry_.counter("parts_hedged").add();
    if (sampledQuery(idx)) {
        writer_.instant("hedge", "router", 0, t_s,
                        "\"query\": " + std::to_string(idx) +
                            ", \"from\": " + std::to_string(from_machine) +
                            ", \"to\": " + std::to_string(to_machine));
    }
}

void
RunObserver::onQueryFailover(uint64_t idx, double t_s, uint32_t attempt,
                             double delay_s)
{
    registry_.counter("queries_failover").add();
    if (sampledQuery(idx)) {
        writer_.instant("failover", "router", 0, t_s,
                        "\"query\": " + std::to_string(idx) +
                            ", \"attempt\": " + std::to_string(attempt) +
                            ", \"delay_s\": " + std::to_string(delay_s));
    }
}

void
RunObserver::onQueryLost(uint64_t idx, double t_s)
{
    registry_.counter("queries_lost").add();
    if (sampledQuery(idx)) {
        writer_.instant("lost", "router", 0, t_s,
                        "\"query\": " + std::to_string(idx));
    }
}

void
RunObserver::onScaleEvent(double t_s, size_t serving_before,
                          size_t target, size_t granted)
{
    registry_.counter("scale_events").add();
    writer_.instant(granted >= serving_before ? "scale_up" : "scale_down",
                    "autoscaler", 0, t_s,
                    "\"serving\": " + std::to_string(serving_before) +
                        ", \"target\": " + std::to_string(target) +
                        ", \"granted\": " + std::to_string(granted));
}

void
RunObserver::snapshot(double t_s)
{
    registry_.snapshot(t_s);
    // Mirror the headline gauges as Perfetto counter tracks so the
    // timeline renders next to the spans.
    for (const char* name : {"machines", "utilization", "window_p99_ms"}) {
        const auto points = registry_.gaugePoints(name);
        if (!points.empty())
            writer_.counter(name, 0, t_s, points.back());
    }
}

bool
RunObserver::writeTraceFile(const std::string& path) const
{
    return writeTextFile(path, "trace",
                         [this](std::ostream& os) { writeTrace(os); });
}

} // namespace deeprecsys::obs
