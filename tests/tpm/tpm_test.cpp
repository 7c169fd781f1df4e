/**
 * @file
 * TPM emulator, certificates and the Trust Module: PCR extend
 * semantics, quotes, per-session attestation keys, Trust Evidence
 * Registers.
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
    TpmEmulator tpm(makeKeys(1));
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
    TpmEmulator a(makeKeys(1)), b(makeKeys(1));
    a.extend(0, toBytes("x"));
    a.extend(0, toBytes("y"));
    b.extend(0, toBytes("y"));
    b.extend(0, toBytes("x"));
    EXPECT_NE(a.pcrRead(0), b.pcrRead(0));
}

TEST(TpmEmulatorTest, ResetClearsPcrs)
{
    TpmEmulator tpm(makeKeys(1));
    tpm.extend(3, toBytes("stuff"));
    tpm.reset();
    EXPECT_EQ(tpm.pcrRead(3), Bytes(32, 0x00));
}

TEST(TpmEmulatorTest, BadPcrIndexThrows)
{
    TpmEmulator tpm(makeKeys(1));
    EXPECT_THROW(tpm.extend(kNumPcrs, toBytes("x")), std::out_of_range);
    EXPECT_THROW(tpm.pcrRead(kNumPcrs), std::out_of_range);
}

TEST(TpmEmulatorTest, QuoteVerifies)
{
    TpmEmulator tpm(makeKeys(2));
    tpm.extend(0, toBytes("hv"));
    tpm.extend(1, toBytes("os"));
    const Bytes nonce = toBytes("fresh-nonce");
    const TpmQuote quote = tpm.quote({0, 1}, nonce);
    EXPECT_TRUE(TpmEmulator::verifyQuote(quote,
                                         tpm.endorsementPublic()));
    EXPECT_EQ(quote.pcrValues[0], tpm.pcrRead(0));
    EXPECT_EQ(quote.nonce, nonce);
}

TEST(TpmEmulatorTest, TamperedQuoteFailsVerification)
{
    TpmEmulator tpm(makeKeys(2));
    tpm.extend(0, toBytes("hv"));
    TpmQuote quote = tpm.quote({0}, toBytes("n"));
    quote.pcrValues[0][0] ^= 0x01;
    EXPECT_FALSE(TpmEmulator::verifyQuote(quote,
                                          tpm.endorsementPublic()));
}

TEST(TpmEmulatorTest, QuoteNonceSubstitutionFails)
{
    TpmEmulator tpm(makeKeys(2));
    TpmQuote quote = tpm.quote({0}, toBytes("original"));
    quote.nonce = toBytes("replayed");
    EXPECT_FALSE(TpmEmulator::verifyQuote(quote,
                                          tpm.endorsementPublic()));
}

TEST(TpmEmulatorTest, QuoteEncodeDecodeRoundTrip)
{
    TpmEmulator tpm(makeKeys(2));
    tpm.extend(0, toBytes("a"));
    const TpmQuote quote = tpm.quote({0, 5}, toBytes("n"));
    auto decoded = TpmQuote::decode(quote.encode());
    ASSERT_TRUE(decoded.isOk());
    EXPECT_TRUE(TpmEmulator::verifyQuote(decoded.value(),
                                         tpm.endorsementPublic()));
    EXPECT_FALSE(TpmQuote::decode(Bytes{0x01, 0x02}).isOk());
}

TEST(TpmEmulatorTest, NvramRoundTrip)
{
    TpmEmulator tpm(makeKeys(1));
    EXPECT_FALSE(tpm.nvRead(7).isOk());
    tpm.nvWrite(7, toBytes("sealed"));
    EXPECT_EQ(tpm.nvRead(7).value(), toBytes("sealed"));
}

TEST(CertificateTest, IssueVerifyRoundTrip)
{
    const auto issuerKeys = makeKeys(3);
    const auto subjectKeys = makeKeys(4);
    const Certificate cert = issueCertificate(
        "aik-session-1", subjectKeys.pub, "privacy-ca", 42,
        issuerKeys.priv);
    EXPECT_TRUE(cert.verify(issuerKeys.pub));
    EXPECT_EQ(cert.publicKey().value(), subjectKeys.pub);

    auto decoded = Certificate::decode(cert.encode());
    ASSERT_TRUE(decoded.isOk());
    EXPECT_TRUE(decoded.value().verify(issuerKeys.pub));
    EXPECT_EQ(decoded.value().subject, "aik-session-1");
    EXPECT_EQ(decoded.value().serial, 42u);
}

TEST(CertificateTest, TamperedFieldsFailVerification)
{
    const auto issuerKeys = makeKeys(3);
    const auto subjectKeys = makeKeys(4);
    Certificate cert = issueCertificate("subject", subjectKeys.pub,
                                        "ca", 1, issuerKeys.priv);
    Certificate bad = cert;
    bad.subject = "other-subject";
    EXPECT_FALSE(bad.verify(issuerKeys.pub));

    bad = cert;
    bad.serial = 2;
    EXPECT_FALSE(bad.verify(issuerKeys.pub));

    // Wrong issuer key.
    EXPECT_FALSE(cert.verify(subjectKeys.pub));
}

TEST(TrustModuleTest, TerBankLifecycle)
{
    TrustModule tm("server-1", makeKeys(5), toBytes("entropy"));
    EXPECT_FALSE(tm.hasBank("usage"));
    tm.defineBank("usage", 30);
    EXPECT_TRUE(tm.hasBank("usage"));
    EXPECT_EQ(tm.readBank("usage").size(), 30u);

    tm.writeRegister("usage", 4, 100); // The paper's (4,5] example.
    tm.incrementRegister("usage", 4);
    EXPECT_EQ(tm.readRegister("usage", 4), 101u);

    tm.clearBank("usage");
    EXPECT_EQ(tm.readRegister("usage", 4), 0u);
}

TEST(TrustModuleTest, TerBadAddressesThrow)
{
    TrustModule tm("server-1", makeKeys(5), toBytes("entropy"));
    tm.defineBank("b", 4);
    EXPECT_THROW(tm.writeRegister("b", 4, 1), std::out_of_range);
    EXPECT_THROW(tm.readRegister("nope", 0), std::out_of_range);
    EXPECT_THROW(tm.readBank("nope"), std::out_of_range);
    EXPECT_THROW(tm.clearBank("nope"), std::out_of_range);
}

TEST(TrustModuleTest, SessionKeysAreFreshAndCertifiable)
{
    TrustModule tm("server-1", makeKeys(6), toBytes("entropy"));
    const auto s1 = tm.beginSession();
    const auto s2 = tm.beginSession();
    EXPECT_NE(s1.handle, s2.handle);
    EXPECT_NE(s1.attestationKey.n, s2.attestationKey.n)
        << "AVKs must be session specific (anonymity, §3.4.2)";

    // The identity signature over AVKs verifies against VKs — what
    // the pCA checks before certifying.
    EXPECT_TRUE(crypto::rsaVerify(tm.identityPublic(),
                                  s1.attestationKey.encode(),
                                  s1.attestationKeySignature));
}

TEST(TrustModuleTest, SessionSigningAndTeardown)
{
    TrustModule tm("server-1", makeKeys(6), toBytes("entropy"));
    const auto session = tm.beginSession();
    const Bytes msg = toBytes("measurements");
    auto sig = tm.signWithSession(session.handle, msg);
    ASSERT_TRUE(sig.isOk());
    EXPECT_TRUE(crypto::rsaVerify(session.attestationKey, msg,
                                  sig.value()));

    tm.endSession(session.handle);
    EXPECT_FALSE(tm.signWithSession(session.handle, msg).isOk());
    EXPECT_EQ(tm.openSessions(), 0u);
}

TEST(TrustModuleTest, IdentityOperations)
{
    TrustModule tm("server-1", makeKeys(7), toBytes("entropy"));
    const Bytes msg = toBytes("hello");
    const Bytes sig = tm.signWithIdentity(msg);
    EXPECT_TRUE(crypto::rsaVerify(tm.identityPublic(), msg, sig));

    Rng rng(1);
    auto cipher = crypto::rsaEncrypt(tm.identityPublic(),
                                     toBytes("premaster"), rng);
    ASSERT_TRUE(cipher.isOk());
    EXPECT_EQ(tm.decryptWithIdentity(cipher.value()).value(),
              toBytes("premaster"));
}

TEST(TrustModuleTest, RngProducesFreshBytes)
{
    TrustModule tm("server-1", makeKeys(7), toBytes("entropy"));
    const Bytes a = tm.randomBytes(16);
    const Bytes b = tm.randomBytes(16);
    EXPECT_EQ(a.size(), 16u);
    EXPECT_NE(a, b);
}

} // namespace
} // namespace monatt::tpm
