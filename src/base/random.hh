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
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

    /** Re-initialize the state from a seed via SplitMix64. */
    void
    reseed(uint64_t seed)
    {
        uint64_t x = seed;
        for (auto& word : state) {
            x += 0x9e3779b97f4a7c15ULL;
            uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit draw. */
    uint64_t
    operator()()
    {
        const uint64_t result = rotl(state[1] * 5, 7) * 9;
        step();
        return result;
    }

    /**
     * Skip @p n raw draws: afterwards the stream is exactly where n
     * calls of operator()() would have left it. Every helper below
     * takes a fixed number of raw draws (two for normal() and
     * lognormal(), one for the rest), so a stream that takes a fixed
     * count per element can start at any element, and a parallel fill
     * can give each chunk its own start state and still reproduce the
     * serial fill bit for bit.
     *
     * Cost is logarithmic in n: the state update is linear over GF(2),
     * so n steps are the matrix power T^n, and T^n = (x^n mod p)(T)
     * for the update's characteristic polynomial p (Cayley-Hamilton).
     * discard() finds p once per process by Berlekamp-Massey, raises x
     * to n mod p by square-and-multiply, and applies the result to the
     * state in 256 steps (Haramoto et al., "Efficient Jump Ahead for
     * F2-Linear Random Number Generators", 2008). Below 256 draws it
     * steps directly. Thread-safe for distinct Rng objects.
     */
    void discard(uint64_t n);

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
    /** The linear state update (the output function left out). */
    void
    step()
    {
        const uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
    }

    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state[4];
};

} // namespace deeprecsys

#endif // DRS_BASE_RANDOM_HH
