/**
 * @file
 * Deterministic pseudo-random number generation for DeepRecSys.
 *
 * Every stochastic component in the library takes an explicit 64-bit
 * seed so experiments are reproducible bit-for-bit across runs. The
 * generator is xoshiro256** seeded via SplitMix64, which is both fast
 * and statistically strong enough for load generation.
 */

#ifndef DRS_BASE_RANDOM_HH
#define DRS_BASE_RANDOM_HH

#include <cmath>
#include <cstdint>

namespace deeprecsys {

/** SplitMix64's increment, the 64-bit golden ratio (2^64 / phi, odd). */
constexpr uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

/**
 * The SplitMix64 finalizer of x + kGoldenGamma: a stateless,
 * statistically strong 64-bit mix. It seeds every Rng, derives the
 * mixed-model substreams, and hashes the ids behind priority classes,
 * retry jitter, observer sampling and embedding rows; the goldens pin
 * its bits, so this is its one copy.
 */
inline uint64_t
mix64(uint64_t x)
{
    x += kGoldenGamma;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * xoshiro256** pseudo-random generator with distribution helpers.
 *
 * Satisfies UniformRandomBitGenerator so it can also back <random>
 * distributions, but the built-in helpers below are preferred because
 * their output is identical across standard-library implementations.
 */
class Rng
{
  public:
    using result_type = uint64_t;

    /** Construct from a seed; equal seeds give equal streams. */
    explicit Rng(uint64_t seed = kGoldenGamma) { reseed(seed); }

    /** Re-initialize the state from a seed: the first four outputs of
     *  a SplitMix64 generator started at @p seed. */
    void
    reseed(uint64_t seed)
    {
        for (auto& word : state) {
            word = mix64(seed);
            seed += kGoldenGamma;
        }
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit draw. */
    uint64_t
    operator()()
    {
        const uint64_t result = rotl(state[1] * 5, 7) * 9;
        const uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
        return lo + static_cast<int64_t>(operator()() % span);
    }

    /** Standard normal draw (Box-Muller, one value per call). */
    double
    normal()
    {
        // Avoid log(0) by nudging u1 away from zero.
        const double u1 = 1.0 - uniform();
        const double u2 = uniform();
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * M_PI * u2);
    }

    /** Normal draw with the given mean and standard deviation. */
    double
    normal(double mean, double stddev)
    {
        return mean + stddev * normal();
    }

    /** Lognormal draw: exp(N(mu, sigma)). */
    double
    lognormal(double mu, double sigma)
    {
        return std::exp(normal(mu, sigma));
    }

    /** Exponential draw with the given rate (mean 1/rate). */
    double
    exponential(double rate)
    {
        return -std::log(1.0 - uniform()) / rate;
    }

    /** Pareto (type I) draw with scale x_m and shape alpha. */
    double
    pareto(double x_m, double alpha)
    {
        return x_m / std::pow(1.0 - uniform(), 1.0 / alpha);
    }

    /** Fork an independent child stream (for parallel components). */
    Rng
    fork()
    {
        return Rng(operator()());
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state[4];
};

} // namespace deeprecsys

#endif // DRS_BASE_RANDOM_HH
