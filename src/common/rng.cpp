#include "common/rng.h"

#include <cmath>

namespace monatt
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
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
    for (auto &word : state)
        word = splitMix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
    const std::uint64_t t = state[1] << 17;
    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);
    return result;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::nextGaussian(double mean, double stddev)
{
    if (haveSpareGaussian) {
        haveSpareGaussian = false;
        return mean + stddev * spareGaussian;
    }
    double u, v, s;
    do {
        u = 2.0 * nextDouble() - 1.0;
        v = 2.0 * nextDouble() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    spareGaussian = v * mul;
    haveSpareGaussian = true;
    return mean + stddev * u * mul;
}

double
Rng::nextExponential(double mean)
{
    double u;
    do {
        u = nextDouble();
    } while (u == 0.0);
    return -mean * std::log(u);
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

Bytes
Rng::nextBytes(std::size_t n)
{
    Bytes out(n);
    std::size_t i = 0;
    while (i < n) {
        std::uint64_t word = next();
        for (int b = 0; b < 8 && i < n; ++b, ++i) {
            out[i] = static_cast<std::uint8_t>(word & 0xff);
            word >>= 8;
        }
    }
    return out;
}

} // namespace monatt
