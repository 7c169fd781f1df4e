/**
 * @file
 * HMAC-DRBG behavioural tests: determinism under a fixed seed,
 * divergence across seeds, output shape.
 */

#include <gtest/gtest.h>

#include "crypto/drbg.h"

namespace monatt::crypto
{
namespace
{

TEST(HmacDrbgTest, DeterministicUnderFixedSeed)
{
    HmacDrbg a(toBytes("seed"));
    HmacDrbg b(toBytes("seed"));
    EXPECT_EQ(a.generate(64), b.generate(64));
    EXPECT_EQ(a.generate(13), b.generate(13));
}

TEST(HmacDrbgTest, DistinctSeedsDiverge)
{
    HmacDrbg a(toBytes("seed-1"));
    HmacDrbg b(toBytes("seed-2"));
    EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(HmacDrbgTest, SuccessiveOutputsDiffer)
{
    HmacDrbg d(toBytes("seed"));
    EXPECT_NE(d.generate(32), d.generate(32));
}

TEST(HmacDrbgTest, GenerateArbitraryLengths)
{
    HmacDrbg d(toBytes("seed"));
    for (std::size_t n : {0u, 1u, 31u, 32u, 33u, 100u, 1000u})
        EXPECT_EQ(d.generate(n).size(), n);
}

TEST(HmacDrbgTest, OutputLooksBalanced)
{
    // Crude sanity check: bit balance within 5% over 64 KiB.
    HmacDrbg d(toBytes("balance"));
    const Bytes out = d.generate(65536);
    std::size_t ones = 0;
    for (std::uint8_t b : out)
        ones += static_cast<std::size_t>(__builtin_popcount(b));
    const double frac = static_cast<double>(ones) / (65536.0 * 8.0);
    EXPECT_NEAR(frac, 0.5, 0.05);
}

TEST(HmacDrbgTest, ForkRngDeterministic)
{
    HmacDrbg a(toBytes("seed"));
    HmacDrbg b(toBytes("seed"));
    Rng ra = a.forkRng();
    Rng rb = b.forkRng();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(ra.next(), rb.next());
}

} // namespace
} // namespace monatt::crypto
