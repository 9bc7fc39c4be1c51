/**
 * @file
 * The one cluster event loop, behind both cluster facades.
 *
 * ClusterSimulator (a static tier) and Autoscaler (an elastic tier)
 * are two uses of one tier model (cluster_sim.hh). ClusterLoop runs
 * it; what differs between the tiers is which machines take new
 * queries and how that set changes, and that is a Membership: fixed
 * (cluster_sim.cc) or elastic (autoscaler.cc). The loop owns the
 * tier's ClusterView, the state the router and the admission
 * controller read, and reports crashes, repairs, completions and idle
 * machines to the membership, which changes the accepting set through
 * view.setAccepting() and may push Control and MachineUp events of
 * its own. Internal to src/cluster/.
 */

#ifndef DRS_CLUSTER_CLUSTER_LOOP_HH
#define DRS_CLUSTER_CLUSTER_LOOP_HH

#include <map>
#include <optional>
#include <vector>

#include "cluster/cluster_sim.hh"
#include "cluster/query_book.hh"
#include "sim/machine_engine.hh"

namespace deeprecsys {

class ClusterLoop;

/**
 * Which machines of a tier serve, and how that set changes. Busy time
 * is not a membership's to time: every engine integrates its own at
 * its own calls, so both tiers sum it in the same steps.
 */
class Membership
{
  public:
    virtual ~Membership() = default;

    /** Fill ClusterResult's trace-sized books: machineOfQuery,
     *  partMachinesOfQuery and perModel. */
    virtual bool queryBooks() const = 0;

    /** Run start, after the fault schedule is queued. Every machine
     *  is accepting until the membership says otherwise. */
    virtual void start(ClusterLoop&) {}

    /**
     * Fail-stop crash of @p m (the first of overlapping windows): take
     * it out of service, and call ClusterLoop::killEngine when its
     * engine may hold work.
     */
    virtual void crash(ClusterLoop& loop, uint32_t m, double now) = 0;

    /** Repair of @p m done (the last of overlapping windows). */
    virtual void recover(ClusterLoop& loop, uint32_t m) = 0;

    /** Machine @p m runs work already sent to it; a part forwarded
     *  to a machine that does not is lost. */
    virtual bool serving(const ClusterLoop& loop, size_t m) const = 0;

    /** A Control or MachineUp event the membership pushed. */
    virtual void onEvent(ClusterLoop&, const SimEvent&);

    /** Machine @p m may have just run out of work. */
    virtual void workDone(ClusterLoop&, uint32_t, double) {}

    /** A query completed after @p latency seconds (measured or not). */
    virtual void onCompletion(double) {}

    /** End of run, before the final books. */
    virtual void finish(ClusterLoop&) {}

    /** Seconds machine @p m's utilization is taken over; @p span is
     *  first arrival to last event. */
    virtual double billedSeconds(size_t, double span) const { return span; }
};

/**
 * One run of a cluster tier: its state and its event loop. The loop
 * writes the tier's ClusterView, which the router and the admission
 * controller read at each arrival.
 */
class ClusterLoop final
{
  public:
    ClusterLoop(const ClusterConfig& cfg, const QueryTrace& trace,
                RoutingPolicy& router, Membership& members,
                obs::RunObserver* obs, ClusterResult& result);

    /** Run the trace (sorted by arrival) to completion into the
     *  result. Call once. */
    void run();

    /** Machine @p m is crashed and not yet repaired. */
    bool down(size_t m) const { return downDepth[m] > 0; }

    /** Destroy the engine's queued and running work; each lost part
     *  decides its query's fate (failover, hedge twin, or loss). */
    void killEngine(uint32_t m, double now);

    // ------------------------ state the memberships read and drive
    const ClusterConfig& cfg;
    const QueryTrace& trace;
    obs::RunObserver* const obs;
    ClusterResult& result;

    double t0 = 0;              ///< first arrival

    /** The live tier: engines, in-flight books, accepting set. */
    ClusterView view;

    /**
     * Fanned-out queries led by each machine whose dense
     * join phase has not been admitted yet: between the leader's own
     * embedding part finishing and the last remote part landing, the
     * leader holds no engine work and inFlight can read 0, yet it
     * still owes the join phase.
     */
    std::vector<uint32_t> pendingJoins;

    EventQueue events;

    double lastEventTime = 0;   ///< latest traffic event or completion
    size_t nextArrival = 0;     ///< trace index of the next arrival

  private:
    // Queries go by their QueryBook handle (query_book.hh), parts by
    // their part id.

    /** Append live part @p rec to @p query; returns its id. Any
     *  reference to one of the query's parts is invalid afterwards. */
    uint64_t pushPart(uint64_t query, PartRec rec);
    /** One part of @p query just turned done or cancelled. */
    void partEnded(uint64_t query);

    void present(uint64_t query, double now);
    void startPart(uint64_t part_id, double now);
    void finishPart(uint64_t part_id, double now, bool gpu);
    void deliverPart(uint64_t part_id, double now);
    void completeQuery(uint64_t query);
    void failQuery(uint64_t query, double now);
    void lostPartFate(uint64_t part_id, double now);
    void cancelPart(uint64_t part_id, double now);
    /** Part @p part_id's dispatch was killed (failQuery, or a
     *  re-presentation, moved its query's generation on). */
    bool staleDispatch(uint64_t part_id) const;
    void hedgeQuery(uint64_t query, double now);
    void onFault(const FaultEvent& fe, double now);
    void onTraffic(const SimEvent& ev);
    void releaseJoinCost(QueryState& q);
    void releaseRecords();
    void releaseRow(const QueryState& q);
    void finishBooks();

    /** The per-class book of @p cls (a sink when none is kept). */
    ClassOverloadStats&
    classStats(uint32_t cls)
    {
        return result.overload.perClass.empty()
            ? noClassBook
            : result.overload.perClass[cls];
    }

    RoutingPolicy& router;
    Membership& members;
    const bool queryBooks;
    const bool mixOn;        ///< the tier serves a model mix
    const size_t numMix;     ///< mix width (1 on single-model tiers)
    const bool faultsOn;
    const bool hedgeOn;
    size_t warmup = 0;       ///< leading queries kept out of statistics

    QueryBook queries;

    /**
     * Queries whose release rule may have started to hold during the
     * current event; releaseRecords() tests them before the next one,
     * so no handler ever holds a reference to a released record. A
     * query may be listed twice.
     */
    std::vector<uint64_t> queryChecks;

    /**
     * Runs that keep per-query books hand each released query's
     * ClusterResult::partMachinesOfQuery row to the flat book in trace
     * order: a row released before an earlier query's waits here,
     * keyed by trace index, until every earlier row is out.
     */
    std::map<uint64_t, std::vector<uint32_t>> parkedRows;
    uint64_t nextRow = 0;    ///< trace index of the next row out

    /**
     * The leader of each measured completion and, on a run that keeps
     * per-model books of a mix, its model, in fleet-book order. Ids
     * fit 16 bits (kMaxClusterMachines, kMaxMixModels). finishBooks
     * fans the fleet samples out to the per-machine and per-model
     * books, each reserved to its exact count, then frees these.
     */
    std::vector<uint16_t> latencyMachine;
    std::vector<uint16_t> latencyModel;

    /**
     * The admission estimator, when overload control is on. Only then
     * does the view keep each machine's committed-but-unqueued
     * join-phase cost: each phase's
     * MachineEngine::joinPhaseCostSeconds, stored on its QueryState
     * at fan-out dispatch and released when the phase is admitted or
     * killed.
     */
    std::optional<AdmissionController> admission;

    // Fault state: identity values on the fault-free path.
    std::vector<FaultEvent> faultSchedule;
    std::vector<int> downDepth;
    std::vector<int> grayDepth;
    std::vector<uint64_t> lostBuf;

    std::vector<EngineEvent> scheduled;
    MeasuredSpan span;
    ClassOverloadStats noClassBook;
};

} // namespace deeprecsys

#endif // DRS_CLUSTER_CLUSTER_LOOP_HH
