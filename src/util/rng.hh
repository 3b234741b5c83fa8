/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic pieces of the library (graph generators, workload
 * shuffling) draw from Rng so every experiment is reproducible from a seed.
 * The generator is xoshiro256**, seeded via splitmix64.
 */

#ifndef OMEGA_UTIL_RNG_HH
#define OMEGA_UTIL_RNG_HH

#include <cstdint>
#include <span>

namespace omega {

/**
 * xoshiro256** generator with convenience draws.
 *
 * Satisfies the UniformRandomBitGenerator requirements so it can also be
 * handed to standard-library distributions and std::shuffle.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded with splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Next raw 64-bit draw. */
    std::uint64_t operator()() { return next(); }

    /** Next raw 64-bit draw. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) using Lemire's method; bound > 0. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability p of true. */
    bool nextBool(double p);

    /** Geometric-ish power-law exponent sample helper: x^(-alpha) tail. */
    double nextPareto(double alpha, double x_min);

    /** The raw xoshiro256** state words (snapshot support). */
    std::span<std::uint64_t, 4> stateWords() { return s_; }

  private:
    std::uint64_t s_[4];
};

} // namespace omega

#endif // OMEGA_UTIL_RNG_HH
