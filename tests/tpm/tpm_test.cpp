/**
 * @file
 * TPM emulator, certificates and the Trust Module: PCR extend
 * semantics, certificate signing and decoding, per-session
 * attestation keys, Trust Evidence Registers.
 */

#include <gtest/gtest.h>

#include "crypto/sha256.h"
#include "tpm/certificate.h"
#include "tpm/tpm_emulator.h"
#include "tpm/trust_module.h"

namespace monatt::tpm
{
namespace
{

crypto::RsaKeyPair
makeKeys(std::uint64_t seed)
{
    Rng rng(seed);
    return crypto::rsaGenerateKeyPair(512, rng);
}

TEST(TpmEmulatorTest, PcrsStartZeroAndExtendDeterministically)
{
    TpmEmulator tpm;
    EXPECT_EQ(tpm.pcrRead(0), Bytes(32, 0x00));

    tpm.extend(0, toBytes("hypervisor"));
    const Bytes zero(32, 0x00);
    const Bytes digest = crypto::Sha256::hash(toBytes("hypervisor"));
    EXPECT_EQ(tpm.pcrRead(0),
              crypto::Sha256::hashConcat({&zero, &digest}));
    EXPECT_EQ(tpm.pcrRead(1), Bytes(32, 0x00)); // Others untouched.
}

TEST(TpmEmulatorTest, ExtendOrderMatters)
{
    TpmEmulator a, b;
    a.extend(0, toBytes("x"));
    a.extend(0, toBytes("y"));
    b.extend(0, toBytes("y"));
    b.extend(0, toBytes("x"));
    EXPECT_NE(a.pcrRead(0), b.pcrRead(0));
}

TEST(TpmEmulatorTest, ResetClearsPcrs)
{
    TpmEmulator tpm;
    tpm.extend(3, toBytes("stuff"));
    tpm.reset();
    EXPECT_EQ(tpm.pcrRead(3), Bytes(32, 0x00));
}

TEST(TpmEmulatorTest, BadPcrIndexThrows)
{
    TpmEmulator tpm;
    EXPECT_THROW(tpm.extend(kNumPcrs, toBytes("x")), std::out_of_range);
    EXPECT_THROW(tpm.pcrRead(kNumPcrs), std::out_of_range);
}

TEST(CertificateTest, IssueVerifyRoundTrip)
{
    const auto issuerKeys = makeKeys(3);
    const auto subjectKeys = makeKeys(4);
    const crypto::RsaPublicContext issuer(issuerKeys.pub);
    const Certificate cert = issueCertificate(
        "aik-session-1", subjectKeys.pub, "privacy-ca", 42,
        crypto::RsaPrivateContext(issuerKeys.priv));
    EXPECT_TRUE(cert.verify(issuer));
    EXPECT_EQ(cert.publicKey().value(), subjectKeys.pub);

    auto decoded = Certificate::decode(cert.encode());
    ASSERT_TRUE(decoded.isOk());
    EXPECT_TRUE(decoded.value().verify(issuer));
    EXPECT_EQ(decoded.value().subject, "aik-session-1");
    EXPECT_EQ(decoded.value().serial, 42u);
}

TEST(CertificateTest, TamperedFieldsFailVerification)
{
    const auto issuerKeys = makeKeys(3);
    const auto subjectKeys = makeKeys(4);
    const crypto::RsaPublicContext issuer(issuerKeys.pub);
    Certificate cert =
        issueCertificate("subject", subjectKeys.pub, "ca", 1,
                         crypto::RsaPrivateContext(issuerKeys.priv));
    Certificate bad = cert;
    bad.subject = "other-subject";
    EXPECT_FALSE(bad.verify(issuer));

    bad = cert;
    bad.serial = 2;
    EXPECT_FALSE(bad.verify(issuer));

    // Wrong issuer key.
    EXPECT_FALSE(cert.verify(crypto::RsaPublicContext(subjectKeys.pub)));
}

// The Attestation Server decodes certificates that arrive off the
// wire, so every malformed encoding must fail to decode.
TEST(CertificateTest, DecodeRejectsHostileBytes)
{
    const Certificate cert = issueCertificate(
        "aik-session-1", makeKeys(4).pub, "privacy-ca", 42,
        crypto::RsaPrivateContext(makeKeys(3).priv));
    const Bytes enc = cert.encode();
    ASSERT_TRUE(Certificate::decode(enc).isOk());

    for (std::size_t n = 0; n < enc.size(); ++n) {
        EXPECT_FALSE(
            Certificate::decode(Bytes(enc.begin(), enc.begin() + n)).isOk())
            << "prefix of " << n << " bytes";
    }

    Bytes trailing = enc;
    trailing.push_back(0x00);
    EXPECT_FALSE(Certificate::decode(trailing).isOk());

    // Length prefixes (u32, little-endian) one past the bytes that
    // follow them: the subject's, first, and the signature's, last.
    const auto overlong = [&](std::size_t at) {
        Bytes bad = enc;
        const std::uint32_t len =
            static_cast<std::uint32_t>(enc.size() - at - 4 + 1);
        for (int i = 0; i < 4; ++i)
            bad[at + i] = static_cast<std::uint8_t>(len >> (8 * i));
        return bad;
    };
    EXPECT_FALSE(Certificate::decode(overlong(0)).isOk());
    EXPECT_FALSE(
        Certificate::decode(overlong(enc.size() - cert.signature.size() - 4))
            .isOk());
}

TEST(TrustModuleTest, TerBankLifecycle)
{
    TrustModule tm(makeKeys(5), toBytes("entropy"));
    EXPECT_FALSE(tm.hasBank("usage"));
    tm.defineBank("usage", 30);
    EXPECT_TRUE(tm.hasBank("usage"));
    EXPECT_EQ(tm.readBank("usage").size(), 30u);

    tm.writeRegister("usage", 4, 100); // The paper's (4,5] example.
    EXPECT_EQ(tm.readRegister("usage", 4), 100u);
    EXPECT_EQ(tm.readBank("usage")[4], 100u);

    tm.defineBank("usage", 30); // Redefining zeroes the bank.
    EXPECT_EQ(tm.readRegister("usage", 4), 0u);
}

TEST(TrustModuleTest, TerBadAddressesThrow)
{
    TrustModule tm(makeKeys(5), toBytes("entropy"));
    tm.defineBank("b", 4);
    EXPECT_THROW(tm.writeRegister("b", 4, 1), std::out_of_range);
    EXPECT_THROW(tm.readRegister("nope", 0), std::out_of_range);
    EXPECT_THROW(tm.readBank("nope"), std::out_of_range);
}

TEST(TrustModuleTest, SessionKeysAreFreshAndCertifiable)
{
    TrustModule tm(makeKeys(6), toBytes("entropy"));
    const auto s1 = tm.beginSession();
    const auto s2 = tm.beginSession();
    EXPECT_NE(s1.handle, s2.handle);
    EXPECT_NE(s1.attestationKey.n, s2.attestationKey.n)
        << "AVKs must be session specific (anonymity, §3.4.2)";

    // The identity signature over AVKs verifies against VKs — what
    // the pCA checks before certifying.
    EXPECT_TRUE(crypto::rsaVerify(
        crypto::RsaPublicContext(tm.identityPublic()),
        s1.attestationKey.encode(), s1.attestationKeySignature));
}

TEST(TrustModuleTest, SessionSigningAndTeardown)
{
    TrustModule tm(makeKeys(6), toBytes("entropy"));
    const auto session = tm.beginSession();
    const Bytes msg = toBytes("measurements");
    auto sig = tm.signWithSession(session.handle, msg);
    ASSERT_TRUE(sig.isOk());
    EXPECT_TRUE(crypto::rsaVerify(
        crypto::RsaPublicContext(session.attestationKey), msg, sig.value()));

    tm.endSession(session.handle);
    EXPECT_FALSE(tm.signWithSession(session.handle, msg).isOk());
    EXPECT_EQ(tm.openSessions(), 0u);
}

TEST(TrustModuleTest, IdentityOperations)
{
    TrustModule tm(makeKeys(7), toBytes("entropy"));
    const Bytes msg = toBytes("hello");
    const Bytes sig = tm.signWithIdentity(msg);
    EXPECT_TRUE(crypto::rsaVerify(
        crypto::RsaPublicContext(tm.identityPublic()), msg, sig));
}

TEST(TrustModuleTest, RngProducesFreshBytes)
{
    TrustModule tm(makeKeys(7), toBytes("entropy"));
    const Bytes a = tm.randomBytes(16);
    const Bytes b = tm.randomBytes(16);
    EXPECT_EQ(a.size(), 16u);
    EXPECT_NE(a, b);
}

} // namespace
} // namespace monatt::tpm
