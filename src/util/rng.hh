/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic pieces of the library (graph generators, workload
 * shuffling) draw from Rng so every experiment is reproducible from a seed.
 * The generator is xoshiro256**, seeded via splitmix64. Its state map is
 * linear over GF(2), so advance() can skip any number of draws in a few
 * microseconds; parallel generators use that to start each chunk of
 * their output where the sequential draw sequence would be.
 */

#ifndef OMEGA_UTIL_RNG_HH
#define OMEGA_UTIL_RNG_HH

#include <array>
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

    /**
     * A polynomial over GF(2) of degree below 256: bit i of word i / 64
     * is the coefficient of x^i.
     */
    using Poly = std::array<std::uint64_t, 4>;

    /**
     * The characteristic polynomial P of the xoshiro256 state map, less
     * its x^256 term. P(M) = 0 for the state matrix M, so M^n equals
     * (x^n mod P) evaluated at M.
     */
    static constexpr Poly kCharPoly = {
        0x9d116f2bb0f0f001ull, 0x0280002bcefd1a5eull,
        0x04b4edcf26259f85ull, 0x0003c03c3f3ecb19ull};

    /** (a * b) mod P over GF(2). */
    static Poly mulModP(const Poly &a, const Poly &b);

    /**
     * Advance the state as if next() had been called @p n times: replace
     * the state s by q(M) s with q = x^n mod P, XOR-accumulating the
     * states of 256 consecutive steps as the reference jump() does.
     */
    void advance(std::uint64_t n);

    /** The raw xoshiro256** state words (snapshot support). */
    std::span<std::uint64_t, 4> stateWords() { return s_; }

  private:
    std::uint64_t s_[4];
};

} // namespace omega

#endif // OMEGA_UTIL_RNG_HH
