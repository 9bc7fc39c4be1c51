#include "routing_policy.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "base/random.hh"
#include "obs/observer.hh"

namespace deeprecsys {

const char*
routingKindName(RoutingKind kind)
{
    switch (kind) {
      case RoutingKind::RoundRobin:        return "round-robin";
      case RoutingKind::UniformRandom:     return "uniform-random";
      case RoutingKind::JoinShortestQueue: return "join-shortest-queue";
      case RoutingKind::PowerOfTwoChoices: return "power-of-two";
      case RoutingKind::SizeAware:         return "size-aware";
      case RoutingKind::ShardAware:        return "shard-aware";
    }
    return "unknown";
}

const std::vector<RoutingKind>&
allRoutingKinds()
{
    // ShardAware is deliberately absent: it is the one policy that
    // cannot be built from a bare RoutingSpec (it needs a
    // ShardingConfig), so generic sweeps over this list stay valid.
    static const std::vector<RoutingKind> kinds = {
        RoutingKind::RoundRobin,
        RoutingKind::UniformRandom,
        RoutingKind::JoinShortestQueue,
        RoutingKind::PowerOfTwoChoices,
        RoutingKind::SizeAware,
    };
    return kinds;
}

ClusterView::ClusterView(const std::vector<SimConfig>& machines)
    : inFlight_(machines.size(), 0), joinCost_(machines.size(), 0.0),
      accepting_(machines.size(), 1), acceptingCount_(machines.size())
{
    engines_.reserve(machines.size());
    for (const SimConfig& machine : machines) {
        engines_.emplace_back(&machine);
        const ModelService& first = machine.bindings.front();
        gpu_.push_back(first.policy.gpuEnabled && first.gpu.has_value());
        speed_.push_back(1.0 / machine.slowdown);
    }
}

namespace {

/** Least-loaded machine among @p candidates (ties to the lowest index). */
size_t
leastLoaded(const ClusterView& view, const std::vector<size_t>& candidates)
{
    drs_assert(!candidates.empty(), "no routing candidates");
    size_t best = candidates.front();
    double best_load = view.loadSignal(best);
    for (size_t i = 1; i < candidates.size(); i++) {
        const double load = view.loadSignal(candidates[i]);
        if (load < best_load) {
            best = candidates[i];
            best_load = load;
        }
    }
    return best;
}

/**
 * The machines currently accepting queries, ascending. Under a static
 * tier this is every machine, so policies drawing over it consume
 * their random streams exactly as they did before the elastic tier
 * existed.
 */
void
acceptingMachines(const ClusterView& view, std::vector<size_t>& out)
{
    out.clear();
    for (size_t m = 0; m < view.numMachines(); m++) {
        if (view.accepting(m))
            out.push_back(m);
    }
    drs_assert(!out.empty(), "no machine is accepting queries");
}

class RoundRobinPolicy final : public RoutingPolicy
{
  public:
    size_t
    route(const Query&, const ClusterView& view) override
    {
        // Advance the cursor past non-accepting machines so the
        // rotation stays even over whichever set is live.
        for (size_t tried = 0; tried < view.numMachines(); tried++) {
            const size_t m = next++ % view.numMachines();
            if (view.accepting(m))
                return m;
        }
        drs_panic("no machine is accepting queries");
    }

    RoutingKind kind() const override { return RoutingKind::RoundRobin; }

  private:
    size_t next = 0;
};

class UniformRandomPolicy final : public RoutingPolicy
{
  public:
    explicit UniformRandomPolicy(uint64_t seed) : rng(seed) {}

    size_t
    route(const Query&, const ClusterView& view) override
    {
        if (view.allAccepting()) {
            return static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(view.numMachines()) - 1));
        }
        acceptingMachines(view, candidates);
        return candidates[static_cast<size_t>(rng.uniformInt(
            0, static_cast<int64_t>(candidates.size()) - 1))];
    }

    RoutingKind kind() const override { return RoutingKind::UniformRandom; }

  private:
    Rng rng;
    std::vector<size_t> candidates;    ///< scratch, reused per call
};

class JoinShortestQueuePolicy final : public RoutingPolicy
{
  public:
    size_t
    route(const Query&, const ClusterView& view) override
    {
        // The least-loaded accepting machine, ties to the lowest index.
        size_t best = view.numMachines();
        double best_load = 0.0;
        for (size_t m = 0; m < view.numMachines(); m++) {
            if (!view.accepting(m))
                continue;
            const double load = view.loadSignal(m);
            if (best == view.numMachines() || load < best_load) {
                best = m;
                best_load = load;
            }
        }
        drs_assert(best < view.numMachines(),
                   "no machine is accepting queries");
        return best;
    }

    RoutingKind
    kind() const override
    {
        return RoutingKind::JoinShortestQueue;
    }
};

class PowerOfTwoChoicesPolicy final : public RoutingPolicy
{
  public:
    explicit PowerOfTwoChoicesPolicy(uint64_t seed) : rng(seed) {}

    size_t
    route(const Query&, const ClusterView& view) override
    {
        if (view.allAccepting()) {
            const int64_t n = static_cast<int64_t>(view.numMachines());
            if (n == 1)
                return 0;
            const size_t a =
                static_cast<size_t>(rng.uniformInt(0, n - 1));
            size_t b = static_cast<size_t>(rng.uniformInt(0, n - 2));
            if (b >= a)
                b++;    // sample without replacement
            return view.loadSignal(b) < view.loadSignal(a) ? b : a;
        }
        acceptingMachines(view, candidates);
        const int64_t n = static_cast<int64_t>(candidates.size());
        if (n == 1)
            return candidates.front();
        const size_t a = static_cast<size_t>(rng.uniformInt(0, n - 1));
        size_t b = static_cast<size_t>(rng.uniformInt(0, n - 2));
        if (b >= a)
            b++;    // sample without replacement
        return view.loadSignal(candidates[b]) <
                       view.loadSignal(candidates[a])
                   ? candidates[b]
                   : candidates[a];
    }

    RoutingKind
    kind() const override
    {
        return RoutingKind::PowerOfTwoChoices;
    }

  private:
    Rng rng;
    std::vector<size_t> candidates;    ///< scratch, reused per call
};

/**
 * Large queries (the work-heavy tail of Figure 5) go to
 * accelerator-equipped machines, where batch-level parallelism pays;
 * small queries stay on CPU-only machines so accelerators are kept
 * free for the work that needs them. Within the eligible set the
 * least-loaded machine wins. Falls back to the whole cluster when a
 * class of machine is absent.
 */
class SizeAwarePolicy final : public RoutingPolicy
{
  public:
    explicit SizeAwarePolicy(uint32_t size_threshold)
        : threshold(size_threshold)
    {
    }

    size_t
    route(const Query& query, const ClusterView& view) override
    {
        const bool wants_gpu = query.size >= threshold;
        candidates.clear();
        for (size_t m = 0; m < view.numMachines(); m++) {
            if (view.accepting(m) && view.hasGpu(m) == wants_gpu)
                candidates.push_back(m);
        }
        if (candidates.empty())
            acceptingMachines(view, candidates);
        return leastLoaded(view, candidates);
    }

    RoutingKind kind() const override { return RoutingKind::SizeAware; }

  private:
    uint32_t threshold;
    std::vector<size_t> candidates;    ///< scratch, reused per call
};

/**
 * Routes each query to machines holding (a replica of) its embedding
 * tables. When some machine holds the whole working set the query
 * stays single-hop on the least-loaded such machine; otherwise the
 * policy fans out over a greedy set cover — repeatedly the machine
 * holding the most still-uncovered tables (ties to the less loaded,
 * then the lower index) — and the query joins across the parts. The
 * leader (the first, largest-coverage part) runs the dense stacks;
 * every part runs the lookups for its local share of the tables.
 */
class ShardAwarePolicy final : public RoutingPolicy
{
  public:
    explicit ShardAwarePolicy(const ShardingConfig& sharding_in)
        : sharding(sharding_in),
          cover(sharding_in.placement.numMachines(), 0)
    {
        drs_assert(sharding.placement.feasible(),
                   "shard-aware routing needs a feasible placement");
        // Cache each model's popularity weights (drawn in its local
        // table space) once.
        popularityOfModel.reserve(sharding.models.size());
        for (const ModelTableSpace& space : sharding.models) {
            drs_assert(static_cast<size_t>(space.base) + space.set.numTables
                           <= sharding.placement.numTables(),
                       "model table namespace exceeds the placed tables");
            popularityOfModel.push_back(
                tablePopularity(space.set.numTables, space.set.zipfS));
        }
    }

    size_t
    route(const Query& query, const ClusterView& view) override
    {
        const std::vector<ShardTarget> parts = routeParts(query, view);
        drs_assert(!parts.empty(),
                   "uncovered table with no accepting replica");
        return parts.front().machine;
    }

    std::vector<ShardTarget>
    routeParts(const Query& query, const ClusterView& view) override
    {
        const ShardPlacement& placement = sharding.placement;
        drs_assert(placement.numMachines() == view.numMachines(),
                   "placement machine count mismatch");
        // Draw in the query's own model's local table space, then
        // shift into the placement's id space.
        drs_assert(query.model < sharding.models.size(),
                   "query's model has no table namespace");
        const ModelTableSpace& space = sharding.models[query.model];
        std::vector<uint32_t> tables = tablesOfQuery(
            query.id, space.set, popularityOfModel[query.model]);
        for (uint32_t& t : tables)
            t += space.base;
        if (obs_)
            obs_->onTablesTouched(tables);

        // Single-hop when some accepting machine holds every table
        // the query touches (always true under full replication).
        const size_t single = singleHopReplica(view, placement, tables);
        if (single < view.numMachines()) {
            ShardTarget whole;
            whole.machine = static_cast<uint32_t>(single);
            whole.embFraction = 1.0;
            whole.leader = true;
            return {whole};
        }

        // Greedy set cover over replicas; the first pick covers the
        // most tables and leads. Each pick tallies the cover of every
        // accepting holder of a still-uncovered table; a picked machine
        // holds no uncovered table afterwards, so it is never tallied
        // again.
        std::vector<ShardTarget> parts;
        covered.assign(tables.size(), false);
        size_t uncovered = tables.size();
        while (uncovered > 0) {
            tallied.clear();
            for (size_t i = 0; i < tables.size(); i++) {
                if (covered[i])
                    continue;
                for (uint32_t m : placement.machinesOfTable(tables[i])) {
                    if (view.accepting(m) && cover[m]++ == 0)
                        tallied.push_back(m);
                }
            }
            // Pick the most cover, then the lower load signal, then
            // the lower index. Leaves the tally zeroed.
            size_t best = view.numMachines();
            size_t best_cover = 0;
            double best_load = 0.0;
            for (uint32_t m : tallied) {
                const size_t c = std::exchange(cover[m], 0);
                const double load = view.loadSignal(m);
                if (best == view.numMachines() || c > best_cover ||
                    (c == best_cover &&
                     (load < best_load ||
                      (load == best_load && m < best)))) {
                    best = m;
                    best_cover = c;
                    best_load = load;
                }
            }
            // With machines down, a table can lose its last accepting
            // replica mid-run; report the query unservable (empty
            // plan) and let the fault-aware driver fail it over.
            // Fault-free runs never reach this: feasible placements
            // cover every table and static tiers accept everywhere.
            if (best == view.numMachines())
                return {};
            ShardTarget part;
            part.machine = static_cast<uint32_t>(best);
            part.leader = parts.empty();
            for (size_t i = 0; i < tables.size(); i++) {
                if (!covered[i] && placement.holds(best, tables[i])) {
                    covered[i] = true;
                    uncovered--;
                    part.tables.push_back(tables[i]);
                }
            }
            part.embFraction = static_cast<double>(best_cover) /
                               static_cast<double>(tables.size());
            parts.push_back(std::move(part));
        }
        return parts;
    }

    RoutingKind kind() const override { return RoutingKind::ShardAware; }

    void
    attachObserver(obs::RunObserver* observer) override
    {
        obs_ = observer;
    }

  private:
    const ShardingConfig& sharding;
    /** Per-model Zipf weights (local table spaces). */
    std::vector<std::vector<double>> popularityOfModel;
    std::vector<bool> covered;         ///< scratch: per touched table
    std::vector<uint32_t> tallied;     ///< scratch: machines with cover
    /** Cover tally per machine; all zero between set-cover picks. */
    std::vector<size_t> cover;
    obs::RunObserver* obs_ = nullptr;  ///< per-table load reporting
};

} // namespace

size_t
singleHopReplica(const ClusterView& view, const ShardPlacement& placement,
                 const std::vector<uint32_t>& tables, size_t skip)
{
    // A table on every machine puts every table on every machine.
    const std::vector<uint32_t>& holders = placement.fewestHolders(tables);
    const bool everywhere = holders.size() == view.numMachines();
    size_t best = view.numMachines();
    double best_load = 0.0;
    for (uint32_t m : holders) {
        if (m == skip || !view.accepting(m) ||
            !(everywhere || placement.holdsAll(m, tables)))
            continue;
        const double load = view.loadSignal(m);
        if (best == view.numMachines() || load < best_load) {
            best = m;
            best_load = load;
        }
    }
    return best;
}

std::unique_ptr<RoutingPolicy>
makeRoutingPolicy(const RoutingSpec& spec, const ShardingConfig* sharding)
{
    switch (spec.kind) {
      case RoutingKind::RoundRobin:
        return std::make_unique<RoundRobinPolicy>();
      case RoutingKind::UniformRandom:
        return std::make_unique<UniformRandomPolicy>(spec.seed);
      case RoutingKind::JoinShortestQueue:
        return std::make_unique<JoinShortestQueuePolicy>();
      case RoutingKind::PowerOfTwoChoices:
        return std::make_unique<PowerOfTwoChoicesPolicy>(spec.seed);
      case RoutingKind::SizeAware:
        return std::make_unique<SizeAwarePolicy>(spec.sizeThreshold);
      case RoutingKind::ShardAware:
        drs_assert(sharding != nullptr,
                   "shard-aware routing needs a ShardingConfig");
        return std::make_unique<ShardAwarePolicy>(*sharding);
    }
    drs_assert(false, "unknown routing kind");
    return nullptr;
}

} // namespace deeprecsys
