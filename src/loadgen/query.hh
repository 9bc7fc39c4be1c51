/**
 * @file
 * Query representation for at-scale recommendation inference.
 *
 * A query asks the model to score `size` candidate items for one user
 * (the working-set size of Section III-C); the scheduler may split it
 * into several requests of smaller batch size.
 */

#ifndef DRS_LOADGEN_QUERY_HH
#define DRS_LOADGEN_QUERY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace deeprecsys {

/** One inference query: score `size` items for one user. */
struct Query
{
    uint64_t id = 0;            ///< monotonically increasing identifier
    double arrivalSeconds = 0;  ///< arrival time from stream start
    uint32_t size = 1;          ///< candidate items to score

    /**
     * Priority class, 0 = most important. Only the overload layer
     * (cluster/admission.hh) reads it: under pressure, higher-valued
     * classes are degraded and shed first. Traffic is classless
     * (all 0) unless the trace assigns classes
     * (assignPriorityClasses in loadgen/query_stream.hh).
     */
    uint16_t priorityClass = 0;

    /**
     * Which model of the serving tier's mix this query targets: an
     * index into ClusterConfig::modelMix (NOT the ModelId enum, so a
     * mix may serve two variants of the same Table-1 model), and into
     * every machine's SimConfig::bindings. Single-model traffic is
     * all 0, served by each machine's one binding.
     */
    uint16_t model = 0;
};

// Traces hold one Query per arrival, so the record stays unpadded.
static_assert(sizeof(Query) == 24, "Query grew past 24 bytes");

/** Most priority classes a query can carry (classes 0..65535). */
constexpr uint32_t kMaxPriorityClasses = 1u << 16;

/** Most models a mix can hold (Query::model 0..65535). */
constexpr size_t kMaxMixModels = size_t{1} << 16;

/**
 * Query-id stride of mixed-model traces: model k's queries carry ids
 * k * kMixedQueryIdStride + per-model-index, so each model's id
 * sequence — and everything hashed off it (shard table draws, retry
 * jitter, priority classes) — is stable under mix changes. Model 0
 * degenerates to plain indices 0..n-1, the single-model id sequence.
 */
constexpr uint64_t kMixedQueryIdStride = 1ULL << 40;

/** A generated query trace. */
using QueryTrace = std::vector<Query>;

} // namespace deeprecsys

#endif // DRS_LOADGEN_QUERY_HH
