#include "shard_placement.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "base/logging.hh"
#include "base/random.hh"

namespace deeprecsys {

std::vector<double>
tablePopularity(uint32_t num_tables, double zipf_s)
{
    std::vector<double> weights(num_tables, 0.0);
    double sum = 0.0;
    for (uint32_t t = 0; t < num_tables; t++) {
        weights[t] = std::pow(static_cast<double>(t + 1), -zipf_s);
        sum += weights[t];
    }
    for (double& w : weights)
        w /= sum;
    return weights;
}

std::vector<EmbeddingTableInfo>
embeddingTables(const ModelConfig& cfg, double zipf_s)
{
    const uint64_t row_bytes =
        static_cast<uint64_t>(cfg.embeddingDim) * sizeof(float);
    std::vector<EmbeddingTableInfo> tables;
    for (size_t t = 0; t < cfg.numTables; t++)
        tables.push_back({static_cast<uint32_t>(t),
                          cfg.tableRows * row_bytes, 0.0});
    if (cfg.useAttention || cfg.useRecurrent)
        tables.push_back({static_cast<uint32_t>(tables.size()),
                          cfg.behaviorTableRows * row_bytes, 0.0});

    const std::vector<double> weights =
        tablePopularity(static_cast<uint32_t>(tables.size()), zipf_s);
    for (size_t t = 0; t < tables.size(); t++)
        tables[t].popularity = weights[t];
    return tables;
}

const char*
placementStrategyName(PlacementStrategy strategy)
{
    switch (strategy) {
      case PlacementStrategy::GreedyBySize:      return "greedy-by-size";
      case PlacementStrategy::HotColdReplicated: return "hot-cold-replicated";
    }
    return "unknown";
}

const std::vector<PlacementStrategy>&
allPlacementStrategies()
{
    static const std::vector<PlacementStrategy> strategies = {
        PlacementStrategy::GreedyBySize,
        PlacementStrategy::HotColdReplicated,
    };
    return strategies;
}

namespace {

/**
 * HotColdReplicated: fraction of each machine's budget reserved for
 * replicated hot tables. Replication stops at the first table that
 * would overflow this reserve on any machine.
 */
constexpr double kHotReplicaFraction = 0.5;

/** Free bytes on a machine; budget 0 means unconstrained. */
uint64_t
freeBytes(uint64_t budget, uint64_t used)
{
    if (budget == 0)
        return std::numeric_limits<uint64_t>::max() - used;
    return budget > used ? budget - used : 0;
}

/** Table order: descending bytes, ties broken by ascending id. */
std::vector<size_t>
bySizeDesc(const std::vector<EmbeddingTableInfo>& tables)
{
    std::vector<size_t> order(tables.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (tables[a].bytes != tables[b].bytes)
            return tables[a].bytes > tables[b].bytes;
        return tables[a].id < tables[b].id;
    });
    return order;
}

/** Table order: descending popularity, ties broken by ascending id. */
std::vector<size_t>
byPopularityDesc(const std::vector<EmbeddingTableInfo>& tables)
{
    std::vector<size_t> order(tables.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (tables[a].popularity != tables[b].popularity)
            return tables[a].popularity > tables[b].popularity;
        return tables[a].id < tables[b].id;
    });
    return order;
}

/** Insert @p value into the ascending list @p list, keeping it so. */
void
insertSorted(std::vector<uint32_t>& list, uint32_t value)
{
    list.insert(std::upper_bound(list.begin(), list.end(), value), value);
}

} // namespace

bool
ShardPlacement::assign(uint32_t table, size_t machine, uint64_t bytes,
                       const std::vector<uint64_t>& budgets)
{
    if (holds(machine, table))
        return true;
    if (freeBytes(budgets[machine], bytesOnMachine_[machine]) < bytes)
        return false;
    bytesOnMachine_[machine] += bytes;
    insertSorted(tablesOnMachine_[machine], table);
    insertSorted(machinesOfTable_[table], static_cast<uint32_t>(machine));
    return true;
}

ShardPlacement
ShardPlacement::build(const std::vector<EmbeddingTableInfo>& tables,
                      const std::vector<uint64_t>& budget_bytes,
                      const PlacementSpec& spec)
{
    drs_assert(!budget_bytes.empty(), "placement needs machines");
    for (size_t t = 0; t < tables.size(); t++)
        drs_assert(tables[t].id == t, "table ids must be dense 0..N-1");

    ShardPlacement p;
    p.spec_ = spec;
    p.bytesOnMachine_.assign(budget_bytes.size(), 0);
    p.tablesOnMachine_.assign(budget_bytes.size(), {});
    p.machinesOfTable_.assign(tables.size(), {});
    const size_t machines = budget_bytes.size();

    // The machine with the most free bytes that fits table @p t and
    // does not hold it yet, the lowest index on ties; `machines` when
    // none fits.
    auto most_free = [&](const EmbeddingTableInfo& t) {
        size_t best = machines;
        uint64_t best_free = 0;
        for (size_t m = 0; m < machines; m++) {
            // The holder list is a few replicas; the machine's own
            // table list can be long.
            if (std::ranges::binary_search(p.machinesOfTable_[t.id], m))
                continue;
            const uint64_t free =
                freeBytes(budget_bytes[m], p.bytesOnMachine_[m]);
            if (free >= t.bytes && (best == machines || free > best_free)) {
                best = m;
                best_free = free;
            }
        }
        return best;
    };

    // Greedy single-copy placement of the tables listed in @p order:
    // each goes to the machine with the most free bytes that fits it.
    auto place_greedy = [&](const std::vector<size_t>& order) {
        for (size_t idx : order) {
            const EmbeddingTableInfo& t = tables[idx];
            if (!p.machinesOfTable_[t.id].empty())
                continue;    // already replicated by a hot phase
            const size_t best = most_free(t);
            if (best < machines)
                p.assign(t.id, best, t.bytes, budget_bytes);
        }
    };

    switch (spec.strategy) {
      case PlacementStrategy::GreedyBySize:
        place_greedy(bySizeDesc(tables));
        break;

      case PlacementStrategy::HotColdReplicated: {
        // Hot phase: replicate in popularity order while the replica
        // set stays within the hot reserve on every machine.
        uint64_t hot_bytes = 0;
        for (size_t idx : byPopularityDesc(tables)) {
            const EmbeddingTableInfo& t = tables[idx];
            bool fits_everywhere = true;
            for (size_t m = 0; fits_everywhere && m < machines; m++) {
                if (budget_bytes[m] == 0)
                    continue;    // unconstrained machine
                const double reserve = kHotReplicaFraction *
                                       static_cast<double>(budget_bytes[m]);
                fits_everywhere =
                    static_cast<double>(hot_bytes + t.bytes) <= reserve;
            }
            if (!fits_everywhere)
                break;    // popularity prefix only
            hot_bytes += t.bytes;
            for (size_t m = 0; m < machines; m++)
                p.assign(t.id, m, t.bytes, budget_bytes);
        }
        // Cold phase: single copy each, largest first.
        place_greedy(bySizeDesc(tables));
        break;
      }
    }

    // Availability pass: top every table up to minReplicas copies,
    // largest tables first (they are the hardest to fit, so they get
    // first pick of the remaining space), each extra copy onto the
    // machine with the most free bytes not already holding the table.
    // Best-effort: a table that fits nowhere keeps fewer copies and
    // replicatedFor() reports the shortfall.
    if (spec.minReplicas > 1) {
        for (size_t idx : bySizeDesc(tables)) {
            const EmbeddingTableInfo& t = tables[idx];
            while (p.machinesOfTable_[t.id].size() < spec.minReplicas) {
                const size_t best = most_free(t);
                if (best == machines ||
                    !p.assign(t.id, best, t.bytes, budget_bytes))
                    break;
            }
        }
    }

    p.feasible_ = !tables.empty();
    for (const auto& replicas : p.machinesOfTable_) {
        if (replicas.empty()) {
            p.feasible_ = false;
            break;
        }
    }
    return p;
}

const std::vector<uint32_t>&
ShardPlacement::fewestHolders(const std::vector<uint32_t>& tables) const
{
    drs_assert(!tables.empty(), "fewestHolders needs a table");
    return machinesOfTable_[*std::ranges::min_element(
        tables, {}, [&](uint32_t t) { return machinesOfTable_[t].size(); })];
}

bool
ShardPlacement::holds(size_t m, uint32_t t) const
{
    return m < tablesOnMachine_.size() &&
           std::binary_search(tablesOnMachine_[m].begin(),
                              tablesOnMachine_[m].end(), t);
}

bool
ShardPlacement::holdsAll(size_t m, const std::vector<uint32_t>& tables) const
{
    return std::all_of(tables.begin(), tables.end(),
                       [&](uint32_t t) { return holds(m, t); });
}

uint64_t
ShardPlacement::totalReplicas() const
{
    uint64_t replicas = 0;
    for (const auto& machines : machinesOfTable_)
        replicas += machines.size();
    return replicas;
}

uint32_t
ShardPlacement::minReplication() const
{
    if (machinesOfTable_.empty())
        return 0;
    size_t least = machinesOfTable_.front().size();
    for (const auto& machines : machinesOfTable_)
        least = std::min(least, machines.size());
    return static_cast<uint32_t>(least);
}

std::vector<uint32_t>
tablesOfQuery(uint64_t query_id, const TableSetSpec& spec,
              const std::vector<double>& weights)
{
    drs_assert(spec.numTables > 0, "table set needs tables");
    drs_assert(weights.size() == spec.numTables,
               "popularity weights must match the table count");
    const uint32_t want = spec.tablesPerQuery == 0
        ? spec.numTables
        : std::min(spec.tablesPerQuery, spec.numTables);

    std::vector<uint32_t> chosen;
    chosen.reserve(want);
    if (want == spec.numTables) {
        for (uint32_t t = 0; t < spec.numTables; t++)
            chosen.push_back(t);
        return chosen;
    }

    // Weighted sampling without replacement: walk the CDF of the
    // not-yet-chosen tables. Keyed by the query id, so equal ids
    // always draw equal working sets.
    Rng rng(spec.seed ^ (query_id * kGoldenGamma));
    double remaining = 1.0;
    std::vector<bool> taken(spec.numTables, false);
    for (uint32_t k = 0; k < want; k++) {
        const double r = rng.uniform() * remaining;
        double acc = 0.0;
        uint32_t pick = spec.numTables;
        for (uint32_t t = 0; t < spec.numTables; t++) {
            if (taken[t])
                continue;
            acc += weights[t];
            if (r < acc) {
                pick = t;
                break;
            }
        }
        if (pick == spec.numTables) {
            // Float round-off at the CDF tail: take the last free one.
            for (uint32_t t = spec.numTables; t-- > 0;) {
                if (!taken[t]) {
                    pick = t;
                    break;
                }
            }
        }
        taken[pick] = true;
        remaining -= weights[pick];
        chosen.push_back(pick);
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
}

} // namespace deeprecsys
