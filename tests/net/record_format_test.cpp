/**
 * @file
 * Known-answer records: the exact bytes a fixed handshake seals.
 *
 * The channel tests elsewhere check behaviour (round trips, rejection
 * of tampered, replayed, reflected and cross-session records). Key
 * separation alone already rejects most of those, so none of them
 * would notice a change to the record layout, the CTR nonce or the MAC
 * input u32 len(sid) || sid || dir || seq || u32 len(ct) || ct. These
 * vectors pin every such byte, so any rewrite of the record layer must
 * reproduce the wire format exactly.
 */

#include <gtest/gtest.h>

#include "common/codec.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "net/secure_channel.h"

namespace monatt::net
{
namespace
{

struct KnownChannel
{
    SecureChannel client;
    SecureChannel server;
    Bytes clientHello;
    Bytes serverHello;

    /**
     * @param lend Lend both handshakes compiled keys, as SecureEndpoint
     *        does; otherwise each handshake compiles its own.
     */
    explicit KnownChannel(bool lend = false)
    {
        Rng rng(0x2b);
        const auto clientKeys = crypto::rsaGenerateKeyPair(512, rng);
        const auto serverKeys = crypto::rsaGenerateKeyPair(512, rng);
        const crypto::RsaPrivateContext clientOwn(clientKeys.priv);
        const crypto::RsaPrivateContext serverOwn(serverKeys.priv);
        const crypto::RsaPublicContext clientPub(clientKeys.pub);
        const crypto::RsaPublicContext serverPub(serverKeys.pub);
        crypto::HmacDrbg cd(toBytes("c")), sd(toBytes("s"));
        ClientHandshake hs("c", "s", clientKeys, serverKeys.pub, cd,
                           lend ? &clientOwn : nullptr,
                           lend ? &serverPub : nullptr);
        ServerHandshake sh("s", serverKeys, sd,
                           lend ? &serverOwn : nullptr);
        clientHello = hs.helloMessage();
        auto accepted = sh.accept(clientHello, clientKeys.pub,
                                  lend ? &clientPub : nullptr);
        EXPECT_TRUE(accepted.isOk()) << accepted.errorMessage();
        serverHello = accepted.value().reply;
        auto finished = hs.finish(serverHello);
        EXPECT_TRUE(finished.isOk()) << finished.errorMessage();
        client = finished.take();
        server = std::move(accepted.value().channel);
    }
};

Bytes
payload(std::size_t n)
{
    Bytes out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint8_t>(i * 31 + 7);
    return out;
}

struct KnownRecord
{
    std::size_t size;
    const char *clientToServer; //!< SHA-256 of the client's record.
    const char *serverToClient; //!< SHA-256 of the server's record.
};

// Captured from the original byte-wise AES and one-shot HMAC record
// layer. Records alternate client, server for each size in turn, so
// both directions advance their sequence numbers from 1 to 10.
const KnownRecord kRecords[] = {
    {0,
     "bdc357cd6a925a0c05bdcce2b24e2c5881656981caca5b23c71de55d9f50b32f",
     "4caacbab1bb15e261546463821302730648d1ee99dd26ace07902150915e5056"},
    {1,
     "6cfb66e31e8f03bc9015271859ab4441ecf3227c4025fb74aa46c6b96088c534",
     "9981a7e2874b6e84581fceac27887ce4c95431cfb59a1becc894346490def2b3"},
    {15,
     "e99b61db4caacdefffd74a3e0a29bb26e0e573fd4751585695fca4ae77fcf5ce",
     "09ecd37094e028908992324100ed1bf435a628205b38e967e21244bd8e977d45"},
    {16,
     "1a00c327b0a09bc874824fe51e5074f83c1117e47fe70a1fe704a1b989880256",
     "9e8decc31afa14634bec213824f3bb2bd38d9e8f7c6e24a7aca0cd1d7a29259f"},
    {17,
     "d76175e895395934eb27607dd8b50ae374f082f5c7f9f86a8db1854a594394aa",
     "cefa70c7859e254cd4cf48e91f7c2f7a65f3866c78a5040fa00b205909ce657b"},
    {55,
     "a2d79dd42930cdb4b919b2c1726d0d13bc449159f8ed4974d68ac76f2d3c50bc",
     "7074871d45675b0b6bf0c768846a6a63b34242491985a4327c492e8cc26d5e63"},
    {56,
     "a4d4bfd22e8c1d543b3b7a6a3e4931f4ea4a3b1a4fa88dc97aa920ece03f8978",
     "c98e32a27bbeb044d60e08460c0870961572ad393a4d94317003285e49c2efee"},
    {64,
     "c74aae507bd52c49a7085eee8d957408d44de3b16bd2ec31c7abb43b1bd0bb74",
     "b92b1f9ea958e5b120347b42a640ed0d27c67b491acd0eb016424f7eccf1afa4"},
    {226,
     "32be3925235431171eec4e8e6fd5932ef3dc451c2132386cb129f0d52dfa66bd",
     "32aab6bd399d6072cc3209e1f0f5e93584e7a38ec9264edc114214afc36730cf"},
    {4096,
     "86c5d27747d53d6440d421e97d910fb41f0ebfce6311fa65a230a786befe0879",
     "2d7bade247ae7e4f10f7179acb67799b56b0b5d83bdc1f324debabb9776499b3"},
};

// The hellos carry both RSA signatures and the encrypted premaster,
// so these digests pin the RSA layer's bytes as well as the framing.
const char *const kClientHelloDigest =
    "ae8a13f6b625ea43714713c1b8e635d7a3ae0c1fac9cac2c57413ed82dc392e0";
const char *const kServerHelloDigest =
    "75a66b936f3b40ce9529f152a08da78d2247b24d95c498376c0ea1e95c297899";

TEST(RecordFormatTest, HandshakeIsPinned)
{
    KnownChannel ch;
    EXPECT_EQ(toHex(ch.client.sessionId()),
              "a0d9ef0ce1e1ff40d71c256ec1adb5c4");
    EXPECT_EQ(toHex(crypto::Sha256::hash(ch.clientHello)),
              kClientHelloDigest);
    EXPECT_EQ(toHex(crypto::Sha256::hash(ch.serverHello)),
              kServerHelloDigest);
    ByteReader r(ch.serverHello);
    ASSERT_TRUE(r.getBytes().isOk()); // Server nonce.
    ASSERT_TRUE(r.getBytes().isOk()); // Signature.
    auto verifyData = r.getBytes();
    ASSERT_TRUE(verifyData.isOk());
    EXPECT_EQ(toHex(verifyData.value()),
              "762f1b17403e32c0d87cd4ae01e85842fa0fec2575df00fe986f898c"
              "f1f6d5d9");
}

TEST(RecordFormatTest, LentContextsGiveTheSameBytes)
{
    KnownChannel own;
    KnownChannel lent(/*lend=*/true);
    EXPECT_EQ(toHex(crypto::Sha256::hash(lent.clientHello)),
              kClientHelloDigest);
    EXPECT_EQ(toHex(crypto::Sha256::hash(lent.serverHello)),
              kServerHelloDigest);
    EXPECT_EQ(lent.clientHello, own.clientHello);
    EXPECT_EQ(lent.serverHello, own.serverHello);
    EXPECT_EQ(lent.client.sessionId(), own.client.sessionId());
    for (const KnownRecord &known : kRecords) {
        const Bytes plain = payload(known.size);
        EXPECT_EQ(lent.client.seal(plain), own.client.seal(plain));
        EXPECT_EQ(lent.server.seal(plain), own.server.seal(plain));
    }
}

TEST(RecordFormatTest, SealedRecordsArePinned)
{
    KnownChannel ch;
    for (const KnownRecord &known : kRecords) {
        const Bytes plain = payload(known.size);

        const Bytes up = ch.client.seal(plain);
        EXPECT_EQ(up.size(), 8 + 4 + known.size + 32);
        EXPECT_EQ(toHex(crypto::Sha256::hash(up)), known.clientToServer)
            << "client record of " << known.size << " bytes";
        auto opened = ch.server.open(up);
        ASSERT_TRUE(opened.isOk()) << opened.errorMessage();
        EXPECT_EQ(opened.value(), plain);

        const Bytes down = ch.server.seal(plain);
        EXPECT_EQ(toHex(crypto::Sha256::hash(down)), known.serverToClient)
            << "server record of " << known.size << " bytes";
        auto openedDown = ch.client.open(down);
        ASSERT_TRUE(openedDown.isOk()) << openedDown.errorMessage();
        EXPECT_EQ(openedDown.value(), plain);
    }
}

TEST(RecordFormatTest, ShortRecordBytesArePinned)
{
    // One record in full, so a layout change shows where it differs:
    // u64 seq || u32 len || ciphertext || 32-byte tag.
    KnownChannel ch;
    EXPECT_EQ(toHex(ch.client.seal(payload(17))),
              "01000000000000001100000046aadfae78bf345aa7a074a891dc7fd1"
              "233abb3770428d69e4f9f681800fe805ba154a6e5a6a05663da80bfe"
              "2890de4693");
}

} // namespace
} // namespace monatt::net
