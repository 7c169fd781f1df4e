/**
 * @file
 * Differential tests of the Montgomery modular-exponentiation engine
 * against the legacy division-based ladder, and of the compiled RSA
 * key contexts against RSA on that ladder. The legacy ladder is the
 * reference implementation: any disagreement is a bug in the fast
 * path.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "crypto/bignum.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

namespace monatt::crypto
{
namespace
{

BigUint
randomBits(Rng &rng, std::size_t bits)
{
    return BigUint::fromBytes(rng.nextBytes(bits / 8));
}

/** A random odd modulus of roughly `bits` bits. */
BigUint
randomOddModulus(Rng &rng, std::size_t bits)
{
    BigUint m = randomBits(rng, bits);
    if (!m.isOdd())
        m = m + BigUint::fromU64(1);
    if (m.bitLength() < 2)
        m = BigUint::fromU64(3);
    return m;
}

/**
 * Moduli at the edges of packing 32-bit limbs into 64-bit ones: odd
 * 32-bit limb counts (96, 160, 288 and 544 bits), one-limb moduli, and
 * all-ones moduli, which drive the final conditional subtraction.
 */
std::vector<BigUint>
edgeModuli(Rng &rng)
{
    std::vector<BigUint> out;
    for (const std::size_t bits : {96u, 160u, 288u, 544u}) {
        BigUint m = BigUint::randomWithBits(bits, rng);
        if (!m.isOdd())
            m = m + BigUint::fromU64(1);
        out.push_back(m);
    }
    const BigUint one = BigUint::fromU64(1);
    out.push_back(BigUint::fromU64(3));
    out.push_back(BigUint::fromU64(0xffffffffULL));
    out.push_back(BigUint::fromU64((1ULL << 61) - 1));
    out.push_back(one.shiftLeft(256) - one);
    out.push_back(one.shiftLeft(512) - one);
    return out;
}

/** `iterations` random modulus, base and exponent triples of `bits`
 * bits each, fast path against the legacy ladder. */
void
expectRandomizedMatch(std::uint64_t seed, std::size_t bits, int iterations)
{
    Rng rng(seed);
    for (int i = 0; i < iterations; ++i) {
        const BigUint m = randomOddModulus(rng, bits);
        const BigUint base = randomBits(rng, bits);
        const BigUint exp = randomBits(rng, bits);
        EXPECT_EQ(base.modExp(exp, m), base.modExpLegacy(exp, m))
            << bits << "-bit iteration " << i;
    }
}

TEST(MontgomeryTest, RandomizedDifferential512)
{
    expectRandomizedMatch(0x5121, 512, 40);
}

TEST(MontgomeryTest, RandomizedDifferential256)
{
    expectRandomizedMatch(0x2561, 256, 40);
}

TEST(MontgomeryTest, RandomizedDifferential1024)
{
    expectRandomizedMatch(0x1024, 1024, 10);
}

/**
 * Odd moduli of exactly `limbs` 64-bit limbs: one whose top limb is all
 * ones and one whose top limb is exactly 2^63, both with random lower
 * limbs, and one random. The first two keep the Montgomery products'
 * intermediate sums at the top of the word range, where a lost top
 * carry or a skipped final subtraction shows.
 */
std::vector<BigUint>
topLimbModuli(Rng &rng, std::size_t limbs)
{
    std::vector<BigUint> out;
    for (const std::uint64_t top : {~0ULL, 1ULL << 63, 0ULL}) {
        Bytes be = rng.nextBytes(8 * limbs);
        for (std::size_t i = 0; i < 8 && top != 0; ++i)
            be[i] = static_cast<std::uint8_t>(top >> (56 - 8 * i));
        be[0] |= 0x80;
        be.back() |= 1;
        out.push_back(BigUint::fromBytes(be));
    }
    return out;
}

// The widths modExp runs at fixed limb counts (4 and 8: every CRT half,
// Miller-Rabin candidate and public modulus of a 512-bit key), one
// run-time width on each side of each, and the operands at the edges:
// exponents 1, 2, 3, 65537 and full width; bases 0, 1, n-1, n and
// wider than n.
TEST(MontgomeryTest, FixedWidthEdgesMatchLegacy)
{
    Rng rng(0x4848);
    const BigUint one = BigUint::fromU64(1);
    for (const std::size_t limbs : {3u, 4u, 5u, 7u, 8u, 9u}) {
        for (const BigUint &m : topLimbModuli(rng, limbs)) {
            ASSERT_EQ(m.bitLength(), 64 * limbs);
            const MontgomeryContext ctx(m);
            const std::vector<BigUint> exps = {
                one, BigUint::fromU64(2), BigUint::fromU64(3),
                BigUint::fromU64(65537),
                BigUint::randomWithBits(64 * limbs, rng)};
            const std::vector<BigUint> bases = {
                BigUint(), one, m - one, m, m + one,
                BigUint::randomWithBits(128 * limbs, rng),
                BigUint::randomWithBits(64 * limbs, rng) % m};
            for (const BigUint &exp : exps) {
                for (const BigUint &base : bases) {
                    EXPECT_EQ(base.modExp(exp, ctx),
                              base.modExpLegacy(exp, m))
                        << limbs << " limbs, m " << m.toHexString()
                        << ", base " << base.toHexString() << ", exp "
                        << exp.toHexString();
                }
            }
        }
    }
}

TEST(MontgomeryTest, SmallAndMixedWidths)
{
    Rng rng(0x77);
    std::vector<BigUint> moduli = edgeModuli(rng);
    moduli.push_back(randomOddModulus(rng, 256));
    // Exercise every window size the ladder picks (1..5 for exponents
    // of 1..>512 bits) and asymmetric operand widths.
    for (const BigUint &m : moduli) {
        for (const std::size_t expBits :
             {8u, 16u, 32u, 128u, 256u, 768u}) {
            const BigUint base = randomBits(rng, 512);
            const BigUint exp = randomBits(rng, expBits);
            EXPECT_EQ(base.modExp(exp, m), base.modExpLegacy(exp, m))
                << m.toHexString() << ", " << expBits << "-bit exponent";
        }
    }
}

TEST(MontgomeryTest, ZeroExponentIsOne)
{
    const BigUint m = BigUint::fromHexString("f123456789abcdef1");
    const BigUint base = BigUint::fromU64(0xdeadbeef);
    EXPECT_EQ(base.modExp(BigUint(), m), BigUint::fromU64(1));
    EXPECT_EQ(base.modExpLegacy(BigUint(), m), BigUint::fromU64(1));
}

TEST(MontgomeryTest, BaseLargerThanModulusIsReduced)
{
    Rng rng(0x88);
    std::vector<BigUint> moduli = edgeModuli(rng);
    moduli.push_back(randomOddModulus(rng, 128));
    const BigUint exp = BigUint::fromU64(65537);
    for (const BigUint &m : moduli) {
        const BigUint base = randomBits(rng, 1024); // base >> m
        EXPECT_EQ(base.modExp(exp, m), base.modExpLegacy(exp, m))
            << m.toHexString();
        EXPECT_EQ((base % m).modExp(exp, m), base.modExp(exp, m))
            << m.toHexString();
        EXPECT_EQ((m - BigUint::fromU64(1)).modExp(exp, m),
                  (m - BigUint::fromU64(1)).modExpLegacy(exp, m))
            << m.toHexString();
    }
}

TEST(MontgomeryTest, ZeroBase)
{
    const BigUint m = BigUint::fromHexString("f1");
    EXPECT_EQ(BigUint().modExp(BigUint::fromU64(12), m), BigUint());
}

TEST(MontgomeryTest, ModulusOneYieldsZero)
{
    const BigUint one = BigUint::fromU64(1);
    EXPECT_EQ(BigUint::fromU64(99).modExp(BigUint::fromU64(3), one),
              BigUint());
}

TEST(MontgomeryTest, ZeroModulusThrows)
{
    EXPECT_THROW(BigUint::fromU64(2).modExp(BigUint::fromU64(3), BigUint()),
                 std::domain_error);
}

TEST(MontgomeryTest, EvenModulusContextRejected)
{
    const BigUint even = BigUint::fromU64(100);
    const BigUint zero;
    EXPECT_THROW(MontgomeryContext{even}, std::domain_error);
    EXPECT_THROW(MontgomeryContext{zero}, std::domain_error);
}

TEST(MontgomeryTest, EvenModulusModExpFallsBackToLegacy)
{
    Rng rng(0x99);
    BigUint m = randomBits(rng, 256);
    if (m.isOdd())
        m = m + BigUint::fromU64(1); // force even
    const BigUint base = randomBits(rng, 256);
    const BigUint exp = randomBits(rng, 64);
    EXPECT_EQ(base.modExp(exp, m), base.modExpLegacy(exp, m));
}

TEST(MontgomeryTest, ContextReuseMatchesOneShot)
{
    Rng rng(0xaa);
    std::vector<BigUint> moduli = edgeModuli(rng);
    moduli.push_back(randomOddModulus(rng, 512));
    for (const BigUint &m : moduli) {
        const MontgomeryContext ctx(m);
        EXPECT_EQ(ctx.modulus(), m);
        for (int i = 0; i < 8; ++i) {
            const BigUint base = randomBits(rng, 512);
            const BigUint exp = randomBits(rng, 512);
            EXPECT_EQ(base.modExp(exp, ctx), base.modExp(exp, m))
                << m.toHexString();
        }
    }
}

// --- RSA contexts against the reference ladder -----------------------

const RsaKeyPair &
testKeyPair()
{
    static const RsaKeyPair kp = [] {
        Rng rng(0xcc);
        return rsaGenerateKeyPair(512, rng);
    }();
    return kp;
}

// A signature is the EMSA block raised to d mod n: check the compiled
// CRT path against the legacy ladder in both directions, and the
// block's frame (00 01 ... digest) without the library's encoder.
TEST(RsaContextTest, SignaturesInterchangeable)
{
    const RsaKeyPair &kp = testKeyPair();
    const RsaPrivateContext priv(kp.priv);
    const RsaPublicContext pub(kp.pub);
    const Bytes msg = toBytes("context equivalence message");

    const Bytes sig = rsaSign(priv, msg);
    const BigUint s = BigUint::fromBytes(sig);
    const BigUint em = s.modExpLegacy(kp.pub.e, kp.pub.n);
    EXPECT_EQ(em.modExpLegacy(kp.priv.d, kp.priv.n), s);
    EXPECT_EQ(pub.encryptRaw(s), em);
    const Bytes block = em.toBytes(kp.pub.modulusBytes());
    EXPECT_EQ(block[0], 0x00);
    EXPECT_EQ(block[1], 0x01);
    EXPECT_EQ(Bytes(block.end() - 32, block.end()), Sha256::hash(msg));

    // A second compilation of the same key signs the same bytes.
    EXPECT_EQ(rsaSign(RsaPrivateContext(kp.priv), msg), sig);
    EXPECT_TRUE(rsaVerify(pub, msg, sig));
    EXPECT_FALSE(rsaVerify(pub, toBytes("other message"), sig));
}

// A ciphertext is the EME block raised to e mod n: the legacy ladder
// under d recovers a block that frames the message.
TEST(RsaContextTest, EncryptionInterchangeable)
{
    const RsaKeyPair &kp = testKeyPair();
    const RsaPrivateContext priv(kp.priv);
    const RsaPublicContext pub(kp.pub);
    EXPECT_TRUE(pub.key() == kp.pub);
    Rng rng(0xdd);
    const Bytes msg = toBytes("premaster secret bytes");

    auto cipher = rsaEncrypt(pub, msg, rng);
    ASSERT_TRUE(cipher.isOk());
    const BigUint c = BigUint::fromBytes(cipher.value());
    const BigUint em = c.modExpLegacy(kp.priv.d, kp.priv.n);
    EXPECT_EQ(priv.decryptRaw(c), em);
    EXPECT_EQ(em.modExpLegacy(kp.pub.e, kp.pub.n), c);
    const Bytes block = em.toBytes(kp.pub.modulusBytes());
    EXPECT_EQ(block[0], 0x00);
    EXPECT_EQ(block[1], 0x02);
    EXPECT_EQ(Bytes(block.end() - msg.size(), block.end()), msg);

    auto plain = rsaDecrypt(priv, cipher.value());
    ASSERT_TRUE(plain.isOk());
    EXPECT_EQ(plain.value(), msg);
}

// Every key the product compiles has an odd modulus and its CRT
// primes; a context refuses anything else rather than falling back.
TEST(RsaContextTest, RejectsKeysWithoutOddModuli)
{
    const RsaKeyPair &kp = testKeyPair();
    RsaPublicKey even = kp.pub;
    even.n = even.n + BigUint::fromU64(1);
    EXPECT_THROW(RsaPublicContext{even}, std::domain_error);
    RsaPrivateKey noCrt = kp.priv;
    noCrt.p = BigUint();
    noCrt.q = BigUint();
    EXPECT_THROW(RsaPrivateContext{noCrt}, std::domain_error);
}

} // namespace
} // namespace monatt::crypto
