/**
 * @file
 * xoshiro256** implementation (public-domain reference algorithm).
 */

#include "util/rng.hh"

#include <bit>
#include <cmath>

namespace omega {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

namespace {

/** p * x mod P. */
Rng::Poly
timesX(const Rng::Poly &p)
{
    const bool carry = (p[3] >> 63) != 0;
    Rng::Poly r = {p[0] << 1, (p[1] << 1) | (p[0] >> 63),
                   (p[2] << 1) | (p[1] >> 63), (p[3] << 1) | (p[2] >> 63)};
    if (carry) {
        for (int w = 0; w < 4; ++w)
            r[w] ^= Rng::kCharPoly[w];
    }
    return r;
}

bool
coefficient(const Rng::Poly &p, unsigned i)
{
    return ((p[i / 64] >> (i % 64)) & 1) != 0;
}

} // namespace

Rng::Poly
Rng::mulModP(const Poly &a, const Poly &b)
{
    // Horner's rule from a's top coefficient down.
    Poly r = {};
    for (unsigned i = 256; i-- > 0;) {
        r = timesX(r);
        if (coefficient(a, i)) {
            for (int w = 0; w < 4; ++w)
                r[w] ^= b[w];
        }
    }
    return r;
}

void
Rng::advance(std::uint64_t n)
{
    // q = x^n mod P by square-and-multiply from n's top bit; multiplying
    // by x is a shift.
    Poly q = {1, 0, 0, 0};
    for (unsigned bit = std::bit_width(n); bit-- > 0;) {
        q = mulModP(q, q);
        if ((n >> bit) & 1)
            q = timesX(q);
    }
    std::uint64_t acc[4] = {0, 0, 0, 0};
    for (unsigned i = 0; i < 256; ++i) {
        if (coefficient(q, i)) {
            for (int w = 0; w < 4; ++w)
                acc[w] ^= s_[w];
        }
        next();
    }
    for (int w = 0; w < 4; ++w)
        s_[w] = acc[w];
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    // Lemire's nearly-divisionless bounded draw.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
        std::uint64_t t = -bound % bound;
        while (l < t) {
            x = next();
            m = static_cast<__uint128_t>(x) * bound;
            l = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double
Rng::nextDouble()
{
    return (next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

double
Rng::nextPareto(double alpha, double x_min)
{
    double u = nextDouble();
    if (u >= 1.0)
        u = 1.0 - 1e-12;
    return x_min / std::pow(1.0 - u, 1.0 / alpha);
}

} // namespace omega
