/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component in the simulator (scheduler jitter,
 * workload burst lengths, nonce generation in tests) draws from an
 * explicitly seeded Xoshiro256** generator so that simulations and
 * benchmarks are bit-for-bit reproducible. Security-grade randomness
 * (keys, nonces in the crypto layer) goes through crypto::HmacDrbg,
 * which is itself seeded deterministically in tests and from this
 * generator in simulations.
 */

#ifndef MONATT_COMMON_RNG_H
#define MONATT_COMMON_RNG_H

#include <cstdint>

#include "common/bytes.h"

namespace monatt
{

/**
 * Xoshiro256** deterministic PRNG.
 *
 * Small, fast, high-quality generator; state is seeded via SplitMix64
 * from a single 64-bit seed so distinct seeds give decorrelated
 * streams.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x1234abcd5678efULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound), bound > 0, without modulo bias. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Gaussian sample via Box-Muller, mean/stddev parameterized. */
    double nextGaussian(double mean, double stddev);

    /** Exponentially distributed sample with the given mean. */
    double nextExponential(double mean);

    /** Bernoulli trial with probability p of returning true. */
    bool nextBool(double p = 0.5);

    /** Fill and return a buffer of `n` pseudo-random bytes. */
    Bytes nextBytes(std::size_t n);

  private:
    std::uint64_t state[4];
    bool haveSpareGaussian = false;
    double spareGaussian = 0.0;
};

} // namespace monatt

#endif // MONATT_COMMON_RNG_H
