/**
 * @file
 * RSA sign/verify/encrypt/decrypt correctness and negative paths
 * (forged signatures, tampered messages, wrong keys), at the key sizes
 * used by the Trust Module, through the compiled keys every caller
 * uses.
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

/** The compiled halves of testPair() and otherPair(). */
const RsaPrivateContext &
testPriv()
{
    static const RsaPrivateContext ctx(testPair().priv);
    return ctx;
}

const RsaPublicContext &
testPub()
{
    static const RsaPublicContext ctx(testPair().pub);
    return ctx;
}

const RsaPrivateContext &
otherPriv()
{
    static const RsaPrivateContext ctx(otherPair().priv);
    return ctx;
}

const RsaPublicContext &
otherPub()
{
    static const RsaPublicContext ctx(otherPair().pub);
    return ctx;
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
    const Bytes sig = rsaSign(testPriv(), msg);
    EXPECT_EQ(sig.size(), testPair().pub.modulusBytes());
    EXPECT_TRUE(rsaVerify(testPub(), msg, sig));
}

// Signatures are deterministic and the encryption padding draws only
// the caller's Rng, so these known answers pin every byte the RSA
// layer produces: any rewrite of its arithmetic or padding must
// reproduce them.
TEST(RsaTest, SignatureKnownAnswer)
{
    const Bytes msg = toBytes("attestation report R for VM vid-42");
    const Bytes sig = rsaSign(RsaPrivateContext(testPair().priv), msg);
    EXPECT_EQ(toHex(sig),
              "740fb277f34668c8c25ff7d5f0ac5272667e7edb58430658af021352"
              "67dd11c3e7faaafed928e398229abc7972bddf9fe7aa677f78797118"
              "ff958ca8f6544fad");
    EXPECT_TRUE(rsaVerify(RsaPublicContext(testPair().pub), msg, sig));
}

TEST(RsaTest, EncryptionKnownAnswer)
{
    Rng rng(7);
    const Bytes msg = toBytes("session key material 0123456789");
    auto cipher = rsaEncrypt(RsaPublicContext(testPair().pub), msg, rng);
    ASSERT_TRUE(cipher.isOk());
    EXPECT_EQ(toHex(cipher.value()),
              "622cf6ce082eba2471468305d15b8619bc3b0a8cb4069014ab0ae372"
              "936247c8a5cfd3f1090b9185dd27304f82e836d5bef8d9b4b5e842a8"
              "e28aadf5df50bd10");
    auto plain = rsaDecrypt(RsaPrivateContext(testPair().priv),
                            cipher.value());
    ASSERT_TRUE(plain.isOk());
    EXPECT_EQ(plain.value(), msg);
}

TEST(RsaTest, VerifyRejectsTamperedMessage)
{
    const Bytes msg = toBytes("healthy");
    const Bytes sig = rsaSign(testPriv(), msg);
    EXPECT_FALSE(rsaVerify(testPub(), toBytes("unhealthy"), sig));
}

TEST(RsaTest, VerifyRejectsTamperedSignature)
{
    const Bytes msg = toBytes("report");
    Bytes sig = rsaSign(testPriv(), msg);
    sig[sig.size() / 2] ^= 0x01;
    EXPECT_FALSE(rsaVerify(testPub(), msg, sig));
}

TEST(RsaTest, VerifyRejectsWrongKey)
{
    const Bytes msg = toBytes("report");
    const Bytes sig = rsaSign(testPriv(), msg);
    EXPECT_FALSE(rsaVerify(otherPub(), msg, sig));
}

TEST(RsaTest, VerifyRejectsWrongLength)
{
    const Bytes msg = toBytes("report");
    Bytes sig = rsaSign(testPriv(), msg);
    sig.pop_back();
    EXPECT_FALSE(rsaVerify(testPub(), msg, sig));
    sig.push_back(0);
    sig.push_back(0);
    EXPECT_FALSE(rsaVerify(testPub(), msg, sig));
}

// The compiled CRT exponentiation against plain m^d mod n on the
// division-based reference ladder MontgomeryTest checks the engine
// against, and back through the compiled public key.
TEST(RsaTest, CrtMatchesPlainExponentiation)
{
    const RsaPrivateKey &key = testPair().priv;
    Rng rng(99);
    for (int i = 0; i < 8; ++i) {
        const BigUint m = BigUint::randomBelow(key.n, rng);
        const BigUint s = testPriv().decryptRaw(m);
        EXPECT_EQ(s, m.modExpLegacy(key.d, key.n)) << i;
        EXPECT_EQ(testPub().encryptRaw(s), m) << i;
    }
}

TEST(RsaTest, EncryptDecryptRoundTrip)
{
    Rng rng(7);
    const Bytes msg = toBytes("session key material 0123456789");
    auto cipher = rsaEncrypt(testPub(), msg, rng);
    ASSERT_TRUE(cipher.isOk());
    auto plain = rsaDecrypt(testPriv(), cipher.value());
    ASSERT_TRUE(plain.isOk());
    EXPECT_EQ(plain.value(), msg);
}

TEST(RsaTest, EncryptIsRandomized)
{
    Rng rng(7);
    const Bytes msg = toBytes("same message");
    auto c1 = rsaEncrypt(testPub(), msg, rng);
    auto c2 = rsaEncrypt(testPub(), msg, rng);
    ASSERT_TRUE(c1.isOk() && c2.isOk());
    EXPECT_NE(c1.value(), c2.value());
}

TEST(RsaTest, EncryptRejectsOversizedMessage)
{
    Rng rng(7);
    const Bytes msg(testPair().pub.modulusBytes() - 10, 0x41);
    EXPECT_FALSE(rsaEncrypt(testPub(), msg, rng).isOk());
}

TEST(RsaTest, DecryptRejectsWrongKeyGarbage)
{
    Rng rng(7);
    const Bytes msg = toBytes("secret");
    auto cipher = rsaEncrypt(testPub(), msg, rng);
    ASSERT_TRUE(cipher.isOk());
    auto plain = rsaDecrypt(otherPriv(), cipher.value());
    // Either padding check fails, or it "succeeds" with different bytes.
    if (plain.isOk()) {
        EXPECT_NE(plain.value(), msg);
    }
}

TEST(RsaTest, DecryptRejectsBadLength)
{
    EXPECT_FALSE(rsaDecrypt(testPriv(), Bytes(3, 0x01)).isOk());
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
