/**
 * @file
 * RSA sign/verify/encrypt/decrypt correctness and negative paths
 * (forged signatures, tampered messages, wrong keys), at the key sizes
 * used by the Trust Module.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

namespace monatt::crypto
{
namespace
{

/** Shared 512-bit pair; generated once to keep the suite fast. */
const RsaKeyPair &
testPair()
{
    static const RsaKeyPair pair = [] {
        Rng rng(20150613); // ISCA'15 dates, fixed for reproducibility.
        return rsaGenerateKeyPair(512, rng);
    }();
    return pair;
}

const RsaKeyPair &
otherPair()
{
    static const RsaKeyPair pair = [] {
        Rng rng(20150617);
        return rsaGenerateKeyPair(512, rng);
    }();
    return pair;
}

TEST(RsaTest, KeyGenProducesValidPair)
{
    const RsaKeyPair &kp = testPair();
    EXPECT_EQ(kp.pub.n.bitLength(), 512u);
    EXPECT_EQ(kp.pub.e, BigUint::fromU64(65537));
    EXPECT_EQ(kp.priv.p * kp.priv.q, kp.pub.n);
    // e*d = 1 mod (p-1)(q-1).
    const BigUint phi = (kp.priv.p - BigUint::fromU64(1)) *
                        (kp.priv.q - BigUint::fromU64(1));
    EXPECT_EQ((kp.pub.e * kp.priv.d) % phi, BigUint::fromU64(1));
}

/** SHA-256 over p || q, each in minimal big-endian bytes. */
std::string
primesDigest(const RsaKeyPair &kp)
{
    Bytes pq = kp.priv.p.toBytes();
    append(pq, kp.priv.q.toBytes());
    return toHex(Sha256::hash(pq));
}

// Frozen primes: any change to the prime search or to the randomness
// it draws moves these, and any faster kernel must keep them.
TEST(RsaTest, KeyGenKnownAnswer)
{
    EXPECT_EQ(primesDigest(testPair()),
              "1d32c1dbdba0d844719951be393ec6b7"
              "77aeb7a7fd6319d79c2aac4fc7ec00bb");
    EXPECT_EQ(primesDigest(otherPair()),
              "d22cf03af37b4e4327cf701f183284f7"
              "cff2d8af8c6d6f84dd6032fbe118d692");
}

TEST(RsaTest, KeyGenPrimesCarryTopTwoBits)
{
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        Rng rng(seed);
        const RsaKeyPair kp = rsaGenerateKeyPair(512, rng);
        EXPECT_EQ(kp.pub.n.bitLength(), 512u) << seed;
        for (const BigUint *prime : {&kp.priv.p, &kp.priv.q}) {
            EXPECT_EQ(prime->bitLength(), 256u) << seed;
            EXPECT_TRUE(prime->bit(254)) << seed;
        }
    }
}

// The CRT parts that every signature uses: qInv, dP and dQ must agree
// with p, q and d, not only on the suite's shared pair.
TEST(RsaTest, KeyGenCrtPartsAreConsistent)
{
    const BigUint one = BigUint::fromU64(1);
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        Rng rng(seed);
        const RsaPrivateKey k = rsaGenerateKeyPair(512, rng).priv;
        const BigUint pMinus1 = k.p - one;
        const BigUint qMinus1 = k.q - one;
        EXPECT_GT(k.p, k.q) << seed;
        EXPECT_EQ((k.q * k.qInv) % k.p, one) << seed;
        EXPECT_EQ(k.dP, k.d % pMinus1) << seed;
        EXPECT_EQ(k.dQ, k.d % qMinus1) << seed;
        EXPECT_EQ((BigUint::fromU64(65537) * k.d) % (pMinus1 * qMinus1),
                  one)
            << seed;
    }
}

TEST(RsaTest, SignVerifyRoundTrip)
{
    const Bytes msg = toBytes("attestation report R for VM vid-42");
    const Bytes sig = rsaSign(testPair().priv, msg);
    EXPECT_EQ(sig.size(), testPair().pub.modulusBytes());
    EXPECT_TRUE(rsaVerify(testPair().pub, msg, sig));
}

TEST(RsaTest, VerifyRejectsTamperedMessage)
{
    const Bytes msg = toBytes("healthy");
    const Bytes sig = rsaSign(testPair().priv, msg);
    EXPECT_FALSE(rsaVerify(testPair().pub, toBytes("unhealthy"), sig));
}

TEST(RsaTest, VerifyRejectsTamperedSignature)
{
    const Bytes msg = toBytes("report");
    Bytes sig = rsaSign(testPair().priv, msg);
    sig[sig.size() / 2] ^= 0x01;
    EXPECT_FALSE(rsaVerify(testPair().pub, msg, sig));
}

TEST(RsaTest, VerifyRejectsWrongKey)
{
    const Bytes msg = toBytes("report");
    const Bytes sig = rsaSign(testPair().priv, msg);
    EXPECT_FALSE(rsaVerify(otherPair().pub, msg, sig));
}

TEST(RsaTest, VerifyRejectsWrongLength)
{
    const Bytes msg = toBytes("report");
    Bytes sig = rsaSign(testPair().priv, msg);
    sig.pop_back();
    EXPECT_FALSE(rsaVerify(testPair().pub, msg, sig));
    sig.push_back(0);
    sig.push_back(0);
    EXPECT_FALSE(rsaVerify(testPair().pub, msg, sig));
}

TEST(RsaTest, CrtMatchesPlainExponentiation)
{
    Rng rng(99);
    const BigUint m = BigUint::randomBelow(testPair().pub.n, rng);
    RsaPrivateKey noCrt = testPair().priv;
    noCrt.p = BigUint();
    noCrt.q = BigUint();
    EXPECT_EQ(testPair().priv.decryptRaw(m), noCrt.decryptRaw(m));
}

TEST(RsaTest, EncryptDecryptRoundTrip)
{
    Rng rng(7);
    const Bytes msg = toBytes("session key material 0123456789");
    auto cipher = rsaEncrypt(testPair().pub, msg, rng);
    ASSERT_TRUE(cipher.isOk());
    auto plain = rsaDecrypt(testPair().priv, cipher.value());
    ASSERT_TRUE(plain.isOk());
    EXPECT_EQ(plain.value(), msg);
}

TEST(RsaTest, EncryptIsRandomized)
{
    Rng rng(7);
    const Bytes msg = toBytes("same message");
    auto c1 = rsaEncrypt(testPair().pub, msg, rng);
    auto c2 = rsaEncrypt(testPair().pub, msg, rng);
    ASSERT_TRUE(c1.isOk() && c2.isOk());
    EXPECT_NE(c1.value(), c2.value());
}

TEST(RsaTest, EncryptRejectsOversizedMessage)
{
    Rng rng(7);
    const Bytes msg(testPair().pub.modulusBytes() - 10, 0x41);
    EXPECT_FALSE(rsaEncrypt(testPair().pub, msg, rng).isOk());
}

TEST(RsaTest, DecryptRejectsWrongKeyGarbage)
{
    Rng rng(7);
    const Bytes msg = toBytes("secret");
    auto cipher = rsaEncrypt(testPair().pub, msg, rng);
    ASSERT_TRUE(cipher.isOk());
    auto plain = rsaDecrypt(otherPair().priv, cipher.value());
    // Either padding check fails, or it "succeeds" with different bytes.
    if (plain.isOk()) {
        EXPECT_NE(plain.value(), msg);
    }
}

TEST(RsaTest, DecryptRejectsBadLength)
{
    EXPECT_FALSE(rsaDecrypt(testPair().priv, Bytes(3, 0x01)).isOk());
}

TEST(RsaTest, PublicKeyEncodeDecodeRoundTrip)
{
    Rng rng(3);
    // The 256-bit key sits at decode's modulus floor.
    for (const RsaPublicKey &pub :
         {testPair().pub, rsaGenerateKeyPair(256, rng).pub}) {
        auto dec = RsaPublicKey::decode(pub.encode());
        ASSERT_TRUE(dec.isOk());
        EXPECT_EQ(dec.value(), pub);
    }
}

TEST(RsaTest, PublicKeyDecodeRejectsMalformed)
{
    EXPECT_FALSE(RsaPublicKey::decode(Bytes{0x01, 0x02}).isOk());
    Bytes enc = testPair().pub.encode();
    enc.push_back(0x00); // Trailing garbage.
    EXPECT_FALSE(RsaPublicKey::decode(enc).isOk());

    const BigUint &n = testPair().pub.n;
    const BigUint one = BigUint::fromU64(1);
    const BigUint e = BigUint::fromU64(65537);
    const auto decodes = [](const BigUint &modulus, const BigUint &exp) {
        return RsaPublicKey::decode(RsaPublicKey{modulus, exp}.encode())
            .isOk();
    };
    EXPECT_TRUE(decodes(n, e));
    EXPECT_TRUE(decodes(n, BigUint::fromU64(3)));
    EXPECT_FALSE(decodes(BigUint(), e));
    EXPECT_FALSE(decodes(n + one, e));                 // Even modulus.
    EXPECT_FALSE(decodes(one.shiftLeft(254) + one, e)); // 255 bits.
    EXPECT_FALSE(decodes(n, BigUint()));
    EXPECT_FALSE(decodes(n, one)); // Every padded digest signs itself.
    EXPECT_FALSE(decodes(n, BigUint::fromU64(65536)));
    EXPECT_FALSE(decodes(n, n));
    EXPECT_FALSE(decodes(n, n + BigUint::fromU64(2)));
}

TEST(RsaTest, KeyGenRejectsBadSizes)
{
    Rng rng(1);
    EXPECT_THROW(rsaGenerateKeyPair(128, rng), std::invalid_argument);
    EXPECT_THROW(rsaGenerateKeyPair(513, rng), std::invalid_argument);
}

TEST(RsaTest, DistinctSeedsDistinctKeys)
{
    Rng a(1), b(2);
    const RsaKeyPair ka = rsaGenerateKeyPair(256, a);
    const RsaKeyPair kb = rsaGenerateKeyPair(256, b);
    EXPECT_NE(ka.pub.n, kb.pub.n);
}

} // namespace
} // namespace monatt::crypto
