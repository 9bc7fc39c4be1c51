/**
 * @file
 * Network and join-model configuration of the cluster tier.
 *
 * Extracted from cluster_sim.hh so the admission controller
 * (cluster/admission.hh) can price forward/return/embedding hops in
 * its response-time estimate without a circular include —
 * cluster_sim.hh includes admission.hh for the OverloadConfig it
 * embeds.
 */

#ifndef DRS_CLUSTER_NETWORK_HH
#define DRS_CLUSTER_NETWORK_HH

namespace deeprecsys {

/**
 * Cost of the router->machine network hop. Every dispatch pays one
 * forward hop (latency plus request serialization) and every
 * completion one return hop (latency plus response serialization); a
 * fanned-out query pays them per part and joins on the slowest. The
 * default is the historical zero-cost router: all terms 0.
 *
 * Units: hopSeconds is **seconds** one-way; bandwidth is gigabytes
 * per second (0 = infinite); payload terms are bytes per candidate
 * sample of the query. The payloads are fixed.
 */
struct NetworkConfig
{
    double hopSeconds = 0.0;          ///< one-way propagation + switching
    double gigabytesPerSecond = 0.0;  ///< serialization bandwidth; 0 = inf

    /** Features shipped per sample on the forward hop. */
    static constexpr double requestBytesPerSample = 512.0;

    /** Scores returned per sample on the return hop. */
    static constexpr double responseBytesPerSample = 8.0;

    /**
     * Pooled embedding state a remote shard part ships to its leader
     * per candidate sample (TwoStage join only): the summed embedding
     * vectors the top MLP consumes, far heavier than the final scores.
     */
    static constexpr double embeddingBytesPerSample = 256.0;

    /** One-way delay in seconds for a payload of @p bytes. */
    double
    oneWaySeconds(double bytes) const
    {
        double s = hopSeconds;
        if (gigabytesPerSecond > 0.0)
            s += bytes / (gigabytesPerSecond * 1e9);
        return s;
    }
};

/**
 * How a fanned-out query's parts rejoin (single-part dispatches are
 * unaffected — they complete on their one part's return hop).
 */
enum class JoinModel
{
    /**
     * Historical model: the leader's dense stacks run concurrently
     * with the remote embedding lookups and every part returns to the
     * router independently; the query completes when the slowest part
     * lands. Optimistic, since the top MLP cannot actually start
     * before the pooled remote embeddings arrive.
     */
    Optimistic,

    /**
     * Faithful model (default): remote parts ship pooled embeddings
     * to the leader (embeddingBytesPerSample hop); once the last part
     * lands the leader runs the dense/interaction/predict stacks as a
     * second service phase, then returns scores to the router.
     */
    TwoStage,
};

/** Name for printing. */
inline const char*
joinModelName(JoinModel model)
{
    switch (model) {
      case JoinModel::Optimistic: return "optimistic";
      case JoinModel::TwoStage: return "two-stage";
    }
    return "?";
}

} // namespace deeprecsys

#endif // DRS_CLUSTER_NETWORK_HH
