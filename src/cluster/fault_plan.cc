#include "fault_plan.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/random.hh"

namespace deeprecsys {

void
validateFaultPlan(const FaultPlan& plan)
{
    if (!(plan.crashesPerHour >= 0.0 && plan.grayPerHour >= 0.0))
        drs_fatal("fault rates must be non-negative");
    if (!(plan.repairSeconds > 0.0))
        drs_fatal("repair time must be positive");
    if (!(plan.graySlowdownFactor > 0.0))
        drs_fatal("gray slowdown factor must be positive");
    if (!(plan.grayDurationSeconds > 0.0))
        drs_fatal("degradation windows must have positive length");
    if (!(plan.failoverDelaySeconds >= 0.0))
        drs_fatal("failover delay must be non-negative");
}

namespace {

/**
 * Independent per-(machine, stream) RNG: the seed is mixed with the
 * machine index and a stream salt before SplitMix64 expansion, so
 * machine m's crash stream is unrelated to its gray stream and to any
 * other machine's streams, and never depends on the fleet size.
 */
Rng
streamRng(uint64_t seed, uint32_t machine, uint64_t salt)
{
    return Rng(seed ^ (0x9e3779b97f4a7c15ULL * (machine + 1)) ^
               (0xbf58476d1ce4e5b9ULL * salt));
}

/**
 * Emit alternating window-open/close events of one Poisson stream:
 * exponential gaps at @p per_hour between windows of @p duration
 * seconds. Windows never overlap themselves (the next gap starts at
 * the previous close). Closes beyond @p end are still emitted so
 * every opened window closes.
 */
void
emitWindows(std::vector<FaultEvent>& out, Rng& rng, double per_hour,
            double duration, double start, double end, uint32_t machine,
            FaultEvent::Kind open, FaultEvent::Kind close)
{
    if (per_hour <= 0.0 || end <= start)
        return;
    const double rate = per_hour / 3600.0;
    double t = start + rng.exponential(rate);
    while (t < end) {
        out.push_back({t, open, machine});
        out.push_back({t + duration, close, machine});
        t += duration + rng.exponential(rate);
    }
}

} // namespace

std::vector<FaultEvent>
buildFaultSchedule(const FaultPlan& plan, uint32_t num_machines,
                   double start_time, double end_time)
{
    validateFaultPlan(plan);
    std::vector<FaultEvent> schedule;
    for (uint32_t m = 0; m < num_machines; m++) {
        Rng crash = streamRng(plan.seed, m, 0xC5A5);
        emitWindows(schedule, crash, plan.crashesPerHour,
                    plan.repairSeconds, start_time, end_time, m,
                    FaultEvent::Kind::Crash, FaultEvent::Kind::Recover);
        Rng gray = streamRng(plan.seed, m, 0x6A41);
        emitWindows(schedule, gray, plan.grayPerHour,
                    plan.grayDurationSeconds, start_time, end_time, m,
                    FaultEvent::Kind::GrayStart, FaultEvent::Kind::GrayEnd);
    }
    if (plan.correlatedCrashSeconds >= 0.0 &&
        plan.correlatedCrashMachines > 0) {
        const double t = start_time + plan.correlatedCrashSeconds;
        const uint32_t n =
            std::min(plan.correlatedCrashMachines, num_machines);
        for (uint32_t m = 0; m < n; m++) {
            schedule.push_back({t, FaultEvent::Kind::Crash, m});
            schedule.push_back(
                {t + plan.repairSeconds, FaultEvent::Kind::Recover, m});
        }
    }
    // Total order (time, machine, kind): the generation order above is
    // machine-major, so the sort key must be explicit for the schedule
    // to be a pure function of the plan alone.
    std::sort(schedule.begin(), schedule.end(),
              [](const FaultEvent& a, const FaultEvent& b) {
                  if (a.time != b.time)
                      return a.time < b.time;
                  if (a.machine != b.machine)
                      return a.machine < b.machine;
                  return static_cast<int>(a.kind) <
                         static_cast<int>(b.kind);
              });
    return schedule;
}

void
assertFaultConservation(const OverloadStats& overload,
                        const FaultStats& faults, uint64_t num_dispatched,
                        uint64_t num_completed, uint64_t trace_size)
{
    drs_assert(overload.offered == trace_size,
               "every trace query must be offered exactly once");
    drs_assert(num_dispatched == overload.admitted,
               "every admitted query must dispatch exactly once");
    drs_assert(overload.dropped ==
                   overload.retried + overload.droppedFinal,
               "every refusal must schedule a retry or be final");
    drs_assert(overload.offered + overload.retried + faults.failovers ==
                   overload.admitted + overload.dropped +
                       faults.unroutable,
               "every presentation must be admitted, dropped, or "
               "unroutable");
    drs_assert(overload.admitted + faults.unroutable ==
                   num_completed + faults.failovers + faults.lost,
               "every admission must complete, fail over, or be lost");
    drs_assert(overload.offered ==
                   num_completed + overload.droppedFinal + faults.lost,
               "offered == completed + dropped + lost must hold exactly");
    drs_assert(faults.lost == faults.lostQueries.size(),
               "lost-query index list out of sync");
    drs_assert(faults.hedgeWins <= faults.hedged &&
                   faults.hedgeWasted <= faults.hedged,
               "hedge outcomes cannot exceed issued duplicates");
}

} // namespace deeprecsys
