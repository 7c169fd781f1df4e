/**
 * @file
 * BigUint arithmetic: fixed vectors plus randomized algebraic
 * property sweeps (the division identity a = qb + r is the critical
 * invariant backing RSA correctness).
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "crypto/bignum.h"
#include "crypto/sha256.h"

namespace monatt::crypto
{
namespace
{

TEST(BigUintTest, ZeroBasics)
{
    const BigUint zero;
    EXPECT_TRUE(zero.isZero());
    EXPECT_EQ(zero.bitLength(), 0u);
    EXPECT_EQ(zero.toHexString(), "0");
    EXPECT_EQ(zero.toBytes(), Bytes{0x00});
}

TEST(BigUintTest, FromU64RoundTrip)
{
    for (std::uint64_t v :
         {0ULL, 1ULL, 255ULL, 256ULL, 0xffffffffULL, 0x100000000ULL,
          0xdeadbeefcafebabeULL, 0xffffffffffffffffULL}) {
        const BigUint b = BigUint::fromU64(v);
        EXPECT_EQ(BigUint::fromBytes(b.toBytes()), b) << v;
    }
}

TEST(BigUintTest, HexRoundTrip)
{
    const std::string hex = "123456789abcdef0fedcba9876543210";
    EXPECT_EQ(BigUint::fromHexString(hex).toHexString(), hex);
    EXPECT_EQ(BigUint::fromHexString("0").toHexString(), "0");
    EXPECT_EQ(BigUint::fromHexString("00ff").toHexString(), "ff");
}

TEST(BigUintTest, AdditionKnownValues)
{
    const BigUint a = BigUint::fromHexString("ffffffffffffffff");
    const BigUint one = BigUint::fromU64(1);
    EXPECT_EQ((a + one).toHexString(), "10000000000000000");
}

TEST(BigUintTest, SubtractionUnderflowThrows)
{
    EXPECT_THROW(BigUint::fromU64(1) - BigUint::fromU64(2),
                 std::underflow_error);
}

TEST(BigUintTest, MultiplicationKnownValues)
{
    const BigUint a = BigUint::fromHexString("ffffffff");
    EXPECT_EQ((a * a).toHexString(), "fffffffe00000001");
    const BigUint big = BigUint::fromHexString(
        "123456789abcdef0123456789abcdef0");
    EXPECT_EQ((big * BigUint::fromU64(0)).toHexString(), "0");
    EXPECT_EQ((big * BigUint::fromU64(1)), big);
}

TEST(BigUintTest, DivisionByZeroThrows)
{
    EXPECT_THROW(BigUint::divmod(BigUint::fromU64(5), BigUint()),
                 std::domain_error);
}

TEST(BigUintTest, DivisionKnownValues)
{
    const BigUint n = BigUint::fromHexString(
        "fedcba9876543210fedcba9876543210");
    const BigUint d = BigUint::fromHexString("123456789");
    auto [q, r] = BigUint::divmod(n, d);
    EXPECT_EQ(q * d + r, n);
    EXPECT_TRUE(r < d);
}

TEST(BigUintTest, ShiftRoundTrip)
{
    const BigUint v = BigUint::fromHexString("deadbeef12345678");
    for (std::size_t s : {1u, 7u, 31u, 32u, 33u, 64u, 100u}) {
        EXPECT_EQ(v.shiftLeft(s).shiftRight(s), v) << s;
    }
    EXPECT_TRUE(v.shiftRight(100).isZero());
}

TEST(BigUintTest, ModExpSmallValues)
{
    // 3^7 mod 5 = 2187 mod 5 = 2.
    EXPECT_EQ(BigUint::fromU64(3).modExp(BigUint::fromU64(7),
                                         BigUint::fromU64(5)),
              BigUint::fromU64(2));
    // Fermat: a^(p-1) = 1 mod p for prime p.
    const BigUint p = BigUint::fromU64(1000003);
    EXPECT_EQ(BigUint::fromU64(12345).modExp(p - BigUint::fromU64(1), p),
              BigUint::fromU64(1));
}

TEST(BigUintTest, GcdKnownValues)
{
    EXPECT_EQ(BigUint::gcd(BigUint::fromU64(48), BigUint::fromU64(36)),
              BigUint::fromU64(12));
    EXPECT_EQ(BigUint::gcd(BigUint::fromU64(17), BigUint::fromU64(13)),
              BigUint::fromU64(1));
}

TEST(BigUintTest, ModInverseKnownValues)
{
    // 3 * 5 = 15 = 1 mod 7.
    EXPECT_EQ(BigUint::fromU64(3).modInverse(BigUint::fromU64(7)),
              BigUint::fromU64(5));
    EXPECT_THROW(BigUint::fromU64(6).modInverse(BigUint::fromU64(9)),
                 std::domain_error);
}

TEST(BigUintTest, PrimalityKnownValues)
{
    Rng rng(42);
    EXPECT_FALSE(BigUint::fromU64(0).isProbablePrime(rng));
    EXPECT_FALSE(BigUint::fromU64(1).isProbablePrime(rng));
    EXPECT_TRUE(BigUint::fromU64(2).isProbablePrime(rng));
    EXPECT_TRUE(BigUint::fromU64(3).isProbablePrime(rng));
    EXPECT_FALSE(BigUint::fromU64(4).isProbablePrime(rng));
    EXPECT_TRUE(BigUint::fromU64(104729).isProbablePrime(rng));
    EXPECT_FALSE(BigUint::fromU64(104731).isProbablePrime(rng));
    // Carmichael number 561 = 3 * 11 * 17 must be rejected.
    EXPECT_FALSE(BigUint::fromU64(561).isProbablePrime(rng));
    // Large known prime: 2^61 - 1.
    EXPECT_TRUE(BigUint::fromU64((1ULL << 61) - 1).isProbablePrime(rng));
}

TEST(BigUintTest, GeneratePrimeHasRequestedSize)
{
    Rng rng(7);
    const BigUint p = BigUint::generatePrime(128, rng);
    EXPECT_EQ(p.bitLength(), 128u);
    EXPECT_TRUE(p.isOdd());
    EXPECT_TRUE(p.bit(126));
    EXPECT_THROW(BigUint::generatePrime(7, rng), std::invalid_argument);
}

std::uint64_t
toU64(const BigUint &v)
{
    std::uint64_t out = 0;
    for (std::uint8_t byte : v.toBytes())
        out = (out << 8) | byte;
    return out;
}

bool
isPrimeByTrialDivision(std::uint64_t v)
{
    if (v < 2)
        return false;
    for (std::uint64_t d = 2; d * d <= v; ++d) {
        if (v % d == 0)
            return false;
    }
    return true;
}

// Small widths reach the search's edges: at 8..14 bits every prime is
// itself in the sieve table (the odd primes below 2^14), and a start
// above the last prime of a width must run past 2^bits and start over.
TEST(BigUintTest, GeneratePrimeSmallWidthsAreTruePrimes)
{
    int ranPast = 0;
    for (std::size_t bits = 8; bits <= 24; ++bits) {
        std::uint64_t lastPrime = (std::uint64_t{1} << bits) - 1;
        while (!isPrimeByTrialDivision(lastPrime))
            lastPrime -= 2;
        for (std::uint64_t seed = 0; seed < 32; ++seed) {
            Rng rng(bits * 1000 + seed);
            const std::uint64_t p =
                toU64(BigUint::generatePrime(bits, rng));
            EXPECT_TRUE(isPrimeByTrialDivision(p)) << p;
            EXPECT_EQ(p >> (bits - 2), 3u) << bits << "-bit " << p;

            // generatePrime's first start: the first draw, top two
            // bits and the low bit forced.
            Rng probe(bits * 1000 + seed);
            const std::uint64_t start =
                toU64(BigUint::randomWithBits(bits, probe)) |
                (std::uint64_t{3} << (bits - 2)) | 1;
            ranPast += start > lastPrime;
        }
    }
    EXPECT_GT(ranPast, 0);
}

/**
 * Leading 16 hex digits of SHA-256 over, for each seed, the prime that
 * generatePrime returns and the caller's next Rng draw after it. The
 * draw moves when the search tests a different candidate or draws one
 * witness more or fewer, even if it lands on the same prime.
 */
std::string
primeSearchDigest(std::size_t bits,
                  std::initializer_list<std::uint64_t> seeds)
{
    Bytes trail;
    for (const std::uint64_t seed : seeds) {
        Rng rng(seed);
        append(trail, BigUint::generatePrime(bits, rng).toBytes());
        append(trail, BigUint::fromU64(rng.next()).toBytes(8));
    }
    return toHex(Sha256::hash(trail)).substr(0, 16);
}

// Frozen prime searches below RSA key size; any rewrite of the search
// must keep every digest. At 8..14 bits a start may lie below some
// sieve primes, so only the sieve primes below it apply (at 8 and 9
// bits trial division may meet the candidate itself); from 15 bits
// every start lies above all 1,899 of them.
TEST(BigUintTest, GeneratePrimeKnownAnswer)
{
    const std::vector<std::pair<std::size_t, std::string>> expected = {
        {8, "305470c1d5563292"}, {9, "2c1396958e5b6153"},
        {10, "1a1966cba327e0cf"}, {11, "0997133652fc596f"},
        {12, "2298466e578fc377"}, {13, "7da4ba6075507d8a"},
        {14, "7093fd8e430c0dc1"}, {15, "e232d84a7ec1d688"},
        {16, "cbb6add24c837722"}, {17, "3966f14eff6a2414"},
        {18, "8c30269ed359f62a"}, {19, "e9f03accb9a4ea5f"},
        {20, "48f7a4804868440b"}, {21, "7eec032c5a41d597"},
        {22, "6056a3ee30893553"}, {23, "f84ec693c04719ef"},
        {24, "fb94c271b3881e7c"}, {25, "baa79ed2287d5f96"},
        {26, "dbf4d53d07e58ab3"}, {27, "42a7e988d995ef4a"},
        {28, "c35074e25faba16f"}, {29, "de155839261d9f63"},
        {30, "2e6d70997577d89f"}, {31, "994d04bc4e96d101"},
        {32, "55d256a02600c540"}, {33, "96221a8824691963"},
        {34, "678d181dac53ab8b"}, {35, "76403d2918ffb2b2"},
        {36, "1553af95374e86dd"}, {37, "c62fd06321668ba2"},
        {38, "65ed3ca007081f08"}, {39, "9db3d42e76972615"},
        {40, "b7417340db0f75fc"}, {64, "bd094b1463785958"},
        {128, "3d6d6b2ab3fa9262"}, {256, "76c01a74700508bc"},
    };
    for (const auto &[bits, digest] : expected) {
        const std::uint64_t s = 0x9e37 * bits;
        EXPECT_EQ(primeSearchDigest(bits, {s, s + 1, s + 2, s + 3, s + 4,
                                           s + 5}),
                  digest)
            << bits << "-bit";
    }
}

// 256-bit searches that scan past 512 and past 1,024 odd candidates
// from their first start before reaching a prime: the long tail of the
// prime gaps at the prime size of a 512-bit key.
TEST(BigUintTest, GeneratePrimeLongGapsKnownAnswer)
{
    using Case = std::tuple<std::uint64_t, std::uint64_t, std::string>;
    for (const auto &[seed, minScan, digest] :
         {Case{2952, 512, "333b6c4c22933d40"},
          Case{3920, 1024, "118adbfa14dd0789"}}) {
        Rng probe(seed);
        BigUint start = BigUint::randomWithBits(256, probe);
        if (!start.bit(254))
            start = start + BigUint::fromU64(1).shiftLeft(254);
        if (!start.isOdd())
            start = start + BigUint::fromU64(1);
        Rng rng(seed);
        const BigUint p = BigUint::generatePrime(256, rng);
        ASSERT_GE(p, start) << seed;
        EXPECT_GE(toU64((p - start).shiftRight(1)), minScan) << seed;
        EXPECT_EQ(primeSearchDigest(256, {seed}), digest) << seed;
    }
}

// Randomized algebraic properties over a sweep of bit widths. These
// exercise the Knuth division hot paths (normalization, qhat
// correction, add-back) that fixed vectors rarely reach.
class BigUintPropertyTest : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(BigUintPropertyTest, DivisionIdentity)
{
    const std::size_t bits = GetParam();
    Rng rng(bits * 7919 + 13);
    for (int i = 0; i < 50; ++i) {
        const BigUint a = BigUint::randomWithBits(bits, rng);
        const std::size_t dbits = 1 + rng.nextBounded(bits);
        BigUint b = BigUint::randomWithBits(dbits, rng);
        if (b.isZero())
            b = BigUint::fromU64(1);
        auto [q, r] = BigUint::divmod(a, b);
        EXPECT_EQ(q * b + r, a);
        EXPECT_TRUE(r < b);
    }
}

TEST_P(BigUintPropertyTest, AddSubInverse)
{
    const std::size_t bits = GetParam();
    Rng rng(bits * 104729 + 1);
    for (int i = 0; i < 50; ++i) {
        const BigUint a = BigUint::randomWithBits(bits, rng);
        const BigUint b = BigUint::randomWithBits(bits, rng);
        EXPECT_EQ((a + b) - b, a);
        EXPECT_EQ((a + b) - a, b);
    }
}

TEST_P(BigUintPropertyTest, MulDistributesOverAdd)
{
    const std::size_t bits = GetParam();
    Rng rng(bits * 31337 + 5);
    for (int i = 0; i < 20; ++i) {
        const BigUint a = BigUint::randomWithBits(bits, rng);
        const BigUint b = BigUint::randomWithBits(bits / 2 + 1, rng);
        const BigUint c = BigUint::randomWithBits(bits / 2 + 1, rng);
        EXPECT_EQ(a * (b + c), a * b + a * c);
    }
}

TEST_P(BigUintPropertyTest, ModExpMatchesNaive)
{
    const std::size_t bits = GetParam();
    Rng rng(bits * 65537 + 3);
    const BigUint m = BigUint::randomWithBits(std::min<std::size_t>(bits,
                                                                    48),
                                              rng);
    const BigUint base = BigUint::randomWithBits(16, rng);
    const std::uint64_t exp = rng.nextBounded(30) + 1;
    BigUint naive = BigUint::fromU64(1);
    for (std::uint64_t i = 0; i < exp; ++i)
        naive = (naive * base) % m;
    EXPECT_EQ(base.modExp(BigUint::fromU64(exp), m), naive);
}

TEST_P(BigUintPropertyTest, ModInverseRoundTrip)
{
    const std::size_t bits = GetParam();
    Rng rng(bits * 11 + 29);
    const BigUint m = BigUint::generatePrime(std::min<std::size_t>(bits,
                                                                   96),
                                             rng);
    for (int i = 0; i < 10; ++i) {
        const BigUint a = BigUint::randomBelow(m, rng);
        const BigUint inv = a.modInverse(m);
        EXPECT_EQ((a * inv) % m, BigUint::fromU64(1));
    }
}

INSTANTIATE_TEST_SUITE_P(BitWidths, BigUintPropertyTest,
                         ::testing::Values(16, 33, 64, 96, 128, 192, 256,
                                           512));

TEST(BigUintTest, ByteRoundTripWithWidth)
{
    const BigUint v = BigUint::fromHexString("abcd");
    const Bytes padded = v.toBytes(8);
    EXPECT_EQ(padded.size(), 8u);
    EXPECT_EQ(toHex(padded), "000000000000abcd");
    EXPECT_EQ(BigUint::fromBytes(padded), v);
    EXPECT_THROW(v.toBytes(1), std::invalid_argument);
}

} // namespace
} // namespace monatt::crypto
