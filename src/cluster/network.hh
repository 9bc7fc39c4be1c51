/**
 * @file
 * Network configuration of the cluster tier: the hop model every
 * dispatch, part and pooled-embedding transfer pays.
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
     * per candidate sample (fan-out only): the summed embedding
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
 * How a fanned-out query's parts rejoin. There is one join: remote
 * parts ship pooled embeddings to the leader (embeddingBytesPerSample
 * hop); once the last part lands the leader runs the
 * dense/interaction/predict stacks as a second service phase, then
 * returns scores to the router.
 *
 * Kept, with ClusterConfig::join, only because perfbench's fleet_day
 * writes `cluster.join = JoinModel::TwoStage`. Once that line goes,
 * delete this enum and the field.
 */
enum class JoinModel
{
    TwoStage,
};

} // namespace deeprecsys

#endif // DRS_CLUSTER_NETWORK_HH
