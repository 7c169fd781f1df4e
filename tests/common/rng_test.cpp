/**
 * @file
 * Deterministic PRNG: reproducibility, range and distribution
 * properties that the simulator depends on.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"

namespace monatt
{
namespace
{

TEST(RngTest, DeterministicUnderSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DistinctSeedsDiverge)
{
    Rng a(1), b(2);
    int differing = 0;
    for (int i = 0; i < 64; ++i)
        differing += a.next() != b.next();
    EXPECT_GT(differing, 60);
}

TEST(RngTest, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(RngTest, BoundedCoversRange)
{
    Rng rng(11);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 2000; ++i)
        ++seen[rng.nextBounded(8)];
    for (int count : seen)
        EXPECT_GT(count, 150); // ~250 expected per bucket.
}

TEST(RngTest, DoubleInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RngTest, GaussianMoments)
{
    Rng rng(9);
    double sum = 0, sumSq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.nextGaussian(10.0, 2.0);
        sum += x;
        sumSq += x * x;
    }
    const double m = sum / n;
    const double var = sumSq / n - m * m;
    EXPECT_NEAR(m, 10.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, ExponentialMean)
{
    Rng rng(13);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextExponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(RngTest, BoolProbability)
{
    Rng rng(17);
    int count = 0;
    for (int i = 0; i < 10000; ++i)
        count += rng.nextBool(0.25);
    EXPECT_NEAR(count / 10000.0, 0.25, 0.03);
}

TEST(RngTest, BytesSizeAndDeterminism)
{
    Rng a(21), b(21);
    const Bytes x = a.nextBytes(37);
    EXPECT_EQ(x.size(), 37u);
    EXPECT_EQ(x, b.nextBytes(37));
}

} // namespace
} // namespace monatt
