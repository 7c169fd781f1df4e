/**
 * @file
 * Property-based robustness sweeps: randomly mutated secure-channel
 * records and protocol messages must be cleanly rejected (or decode
 * to something that fails verification) — never accepted as valid and
 * never crash. This is the mechanical core of the unforgeability
 * claim: there is no byte an attacker can flip that yields a
 * different accepted message.
 */

#include <gtest/gtest.h>

#include "crypto/drbg.h"
#include "net/secure_channel.h"
#include "proto/messages.h"

namespace monatt
{
namespace
{

struct FuzzChannel
{
    net::SecureChannel client;
    net::SecureChannel server;

    FuzzChannel()
    {
        Rng rng(0x2b);
        const auto clientKeys = crypto::rsaGenerateKeyPair(512, rng);
        const auto serverKeys = crypto::rsaGenerateKeyPair(512, rng);
        crypto::HmacDrbg cd(toBytes("c")), sd(toBytes("s"));
        net::ClientHandshake hs("c", "s", clientKeys, serverKeys.pub,
                                cd);
        net::ServerHandshake sh("s", serverKeys, sd);
        auto accepted = sh.accept(hs.helloMessage(), clientKeys.pub);
        client = hs.finish(accepted.value().reply).take();
        server = std::move(accepted.value().channel);
    }
};

class RecordMutationTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RecordMutationTest, AnySingleByteFlipIsRejected)
{
    FuzzChannel f;
    Rng rng(GetParam());
    const Bytes payload = rng.nextBytes(100);
    const Bytes record = f.client.seal(payload);

    // Flip one random byte per trial; each must be rejected.
    for (int trial = 0; trial < 32; ++trial) {
        Bytes mutated = record;
        const std::size_t pos = rng.nextBounded(mutated.size());
        std::uint8_t flip;
        do {
            flip = static_cast<std::uint8_t>(rng.next() & 0xff);
        } while (flip == 0);
        mutated[pos] ^= flip;
        EXPECT_FALSE(f.server.open(mutated).isOk())
            << "accepted a record mutated at byte " << pos;
    }
    // The pristine record still works (channel state undamaged).
    EXPECT_EQ(f.server.open(record).value(), payload);
}

TEST_P(RecordMutationTest, TruncationsAndExtensionsRejected)
{
    FuzzChannel f;
    Rng rng(GetParam() ^ 0x9999);
    const Bytes record = f.client.seal(rng.nextBytes(64));
    for (std::size_t cut = 1; cut <= record.size(); cut += 7) {
        const Bytes truncated(record.begin(), record.end() - cut);
        EXPECT_FALSE(f.server.open(truncated).isOk());
    }
    Bytes extended = record;
    extended.push_back(0x00);
    EXPECT_FALSE(f.server.open(extended).isOk());
}

TEST_P(RecordMutationTest, RandomGarbageRejected)
{
    FuzzChannel f;
    Rng rng(GetParam() ^ 0x4444);
    for (int trial = 0; trial < 64; ++trial) {
        const Bytes garbage = rng.nextBytes(rng.nextBounded(256));
        EXPECT_FALSE(f.server.open(garbage).isOk());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordMutationTest,
                         ::testing::Values(1, 2, 3, 4, 5));

class MessageFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(MessageFuzzTest, MutatedMeasureResponsesNeverVerify)
{
    Rng rng(GetParam());
    // Build a legitimate signed response.
    const auto aik = crypto::rsaGenerateKeyPair(512, rng);
    const crypto::RsaPublicContext aikPub(aik.pub);
    proto::MeasureResponse resp;
    resp.requestId = 1;
    resp.vid = "vm-1";
    resp.rm = {proto::MeasurementType::TaskListVmi};
    proto::Measurement m;
    m.type = proto::MeasurementType::TaskListVmi;
    m.strings = {"init"};
    resp.m.items.push_back(m);
    resp.nonce3 = rng.nextBytes(16);
    resp.quote3 = proto::MeasureResponse::quoteInput(resp.vid, resp.rm,
                                                     resp.m, resp.nonce3);
    resp.signature = crypto::rsaSign(crypto::RsaPrivateContext(aik.priv),
                                     resp.signedPortion());
    ASSERT_TRUE(
        crypto::rsaVerify(aikPub, resp.signedPortion(), resp.signature));

    const Bytes wire = proto::encode(resp);
    for (int trial = 0; trial < 64; ++trial) {
        Bytes mutated = wire;
        const std::size_t pos = rng.nextBounded(mutated.size());
        std::uint8_t flip;
        do {
            flip = static_cast<std::uint8_t>(rng.next() & 0xff);
        } while (flip == 0);
        mutated[pos] ^= flip;

        auto decoded = proto::decode<proto::MeasureResponse>(mutated);
        if (!decoded)
            continue; // Rejected at decode: fine.
        const proto::MeasureResponse &d = decoded.value();
        // If it decodes, the crypto must catch it: either the quote
        // recomputation or the signature fails.
        const Bytes expectedQ3 = proto::MeasureResponse::quoteInput(
            d.vid, d.rm, d.m, d.nonce3);
        const bool quoteOk = constantTimeEqual(expectedQ3, d.quote3);
        const bool sigOk =
            crypto::rsaVerify(aikPub, d.signedPortion(), d.signature);
        EXPECT_FALSE(quoteOk && sigOk)
            << "mutation at byte " << pos << " survived verification";
    }
}

TEST_P(MessageFuzzTest, RandomBytesNeverDecodeToReports)
{
    // Omit-default decoding accepts many short inputs (the empty body
    // is a default message), so the property is that garbage never
    // decodes to a report that verifies under the signer's key.
    Rng rng(GetParam() ^ 0xabcd);
    const crypto::RsaPublicContext signer(
        crypto::rsaGenerateKeyPair(512, rng).pub);
    int verified = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const Bytes garbage = rng.nextBytes(rng.nextBounded(128));
        if (auto r = proto::decode<proto::ReportToCustomer>(garbage))
            verified += crypto::rsaVerify(signer,
                                          r.value().signedPortion(),
                                          r.value().signature);
        if (auto m = proto::decode<proto::MeasureResponse>(garbage))
            verified += crypto::rsaVerify(signer,
                                          m.value().signedPortion(),
                                          m.value().signature);
    }
    EXPECT_EQ(verified, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageFuzzTest,
                         ::testing::Values(11, 22, 33));

} // namespace
} // namespace monatt
