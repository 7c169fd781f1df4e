/**
 * @file
 * SSL-like channel: handshake mutual authentication, key agreement,
 * record protection — and the attacks it must resist: tampering,
 * replay, reflection, impostor endpoints.
 */

#include <gtest/gtest.h>

#include "crypto/drbg.h"
#include "net/secure_channel.h"

namespace monatt::net
{
namespace
{

struct ChannelFixture
{
    crypto::RsaKeyPair clientKeys;
    crypto::RsaKeyPair serverKeys;
    crypto::RsaKeyPair mallowKeys; // The attacker's own key pair.
    crypto::HmacDrbg clientDrbg{toBytes("client-seed")};
    crypto::HmacDrbg serverDrbg{toBytes("server-seed")};
    crypto::HmacDrbg mallowDrbg{toBytes("mallow-seed")};

    ChannelFixture()
    {
        Rng rng(0x55);
        clientKeys = crypto::rsaGenerateKeyPair(512, rng);
        serverKeys = crypto::rsaGenerateKeyPair(512, rng);
        mallowKeys = crypto::rsaGenerateKeyPair(512, rng);
    }

    /** Run a full honest handshake; returns {client, server} ends. */
    std::pair<SecureChannel, SecureChannel>
    establish()
    {
        ClientHandshake client("alice", "bob", clientKeys,
                               serverKeys.pub, clientDrbg);
        ServerHandshake server("bob", serverKeys, serverDrbg);
        auto accepted = server.accept(client.helloMessage(),
                                      clientKeys.pub);
        EXPECT_TRUE(accepted.isOk()) << accepted.errorMessage();
        auto clientChannel = client.finish(accepted.value().reply);
        EXPECT_TRUE(clientChannel.isOk()) << clientChannel.errorMessage();
        return {clientChannel.take(), std::move(accepted.value().channel)};
    }
};

TEST(SecureChannelTest, HandshakeEstablishesMatchingSessions)
{
    ChannelFixture f;
    auto [client, server] = f.establish();
    EXPECT_TRUE(client.established());
    EXPECT_TRUE(server.established());
    EXPECT_EQ(client.sessionId(), server.sessionId());
    EXPECT_EQ(client.sessionId().size(), 16u);
}

TEST(SecureChannelTest, BidirectionalRecords)
{
    ChannelFixture f;
    auto [client, server] = f.establish();

    const Bytes req = toBytes("attest vm-1 please");
    auto opened = server.open(client.seal(req));
    ASSERT_TRUE(opened.isOk()) << opened.errorMessage();
    EXPECT_EQ(opened.value(), req);

    const Bytes resp = toBytes("report: healthy");
    auto openedResp = client.open(server.seal(resp));
    ASSERT_TRUE(openedResp.isOk());
    EXPECT_EQ(openedResp.value(), resp);
}

TEST(SecureChannelTest, RecordsAreConfidential)
{
    ChannelFixture f;
    auto [client, server] = f.establish();
    const Bytes secret = toBytes("the secret measurement payload");
    const Bytes record = client.seal(secret);
    // The plaintext must not appear in the record.
    const std::string recordStr = toString(record);
    EXPECT_EQ(recordStr.find("secret measurement"), std::string::npos);
}

TEST(SecureChannelTest, TamperedRecordRejected)
{
    ChannelFixture f;
    auto [client, server] = f.establish();
    Bytes record = client.seal(toBytes("payload"));
    record[record.size() / 2] ^= 0x01;
    EXPECT_FALSE(server.open(record).isOk());
}

TEST(SecureChannelTest, ReplayedRecordRejected)
{
    ChannelFixture f;
    auto [client, server] = f.establish();
    const Bytes record = client.seal(toBytes("one"));
    ASSERT_TRUE(server.open(record).isOk());
    auto replay = server.open(record);
    ASSERT_FALSE(replay.isOk());
    EXPECT_NE(replay.errorMessage().find("replay"), std::string::npos);
}

TEST(SecureChannelTest, ReorderedRecordsRejected)
{
    ChannelFixture f;
    auto [client, server] = f.establish();
    const Bytes first = client.seal(toBytes("one"));
    const Bytes second = client.seal(toBytes("two"));
    ASSERT_TRUE(server.open(second).isOk());
    EXPECT_FALSE(server.open(first).isOk());
}

TEST(SecureChannelTest, OpenChecksFramingThenMacThenReplay)
{
    ChannelFixture f;
    auto [client, server] = f.establish();
    const Bytes first = client.seal(toBytes("one"));
    const Bytes second = client.seal(toBytes("two"));

    const Bytes truncated(first.begin(), first.begin() + 11);
    EXPECT_EQ(server.open(truncated).errorMessage(),
              "malformed record framing");
    Bytes extended = first;
    extended.push_back(0x00);
    EXPECT_EQ(server.open(extended).errorMessage(),
              "malformed record MAC");

    // A forged record never advances the replay window.
    Bytes forged = second;
    forged[8 + 4] ^= 0x01;
    EXPECT_EQ(server.open(forged).errorMessage(),
              "record MAC verification failed");
    ASSERT_TRUE(server.open(first).isOk());

    // A tampered replay fails on its MAC before the window is checked.
    Bytes tamperedReplay = first;
    tamperedReplay.back() ^= 0x01;
    EXPECT_EQ(server.open(tamperedReplay).errorMessage(),
              "record MAC verification failed");
    EXPECT_EQ(server.open(first).errorMessage(),
              "replayed or reordered record");
    EXPECT_EQ(server.open(second).value(), toBytes("two"));
}

TEST(SecureChannelTest, ReflectionRejected)
{
    // A record a client sealed cannot be fed back to the client: the
    // directional keys differ.
    ChannelFixture f;
    auto [client, server] = f.establish();
    const Bytes record = client.seal(toBytes("hello"));
    EXPECT_FALSE(client.open(record).isOk());
}

TEST(SecureChannelTest, CrossSessionRecordsRejected)
{
    ChannelFixture f;
    auto [client1, server1] = f.establish();
    auto [client2, server2] = f.establish();
    const Bytes record = client1.seal(toBytes("session 1 data"));
    EXPECT_FALSE(server2.open(record).isOk());
}

TEST(SecureChannelTest, ImpostorClientRejected)
{
    // Mallow signs a hello with his own key while claiming alice's
    // identity; the server checks against alice's published key.
    ChannelFixture f;
    ClientHandshake mallow("alice", "bob", f.mallowKeys,
                           f.serverKeys.pub, f.mallowDrbg);
    ServerHandshake server("bob", f.serverKeys, f.serverDrbg);
    auto accepted = server.accept(mallow.helloMessage(),
                                  f.clientKeys.pub);
    EXPECT_FALSE(accepted.isOk());
}

TEST(SecureChannelTest, ImpostorServerRejected)
{
    // The client expects bob's identity key; mallow answers instead.
    ChannelFixture f;
    ClientHandshake client("alice", "bob", f.clientKeys,
                           f.serverKeys.pub, f.clientDrbg);
    // Mallow can't decrypt the premaster (encrypted to bob), so he
    // forges a reply with random data signed by his own key.
    ServerHandshake mallow("bob", f.mallowKeys, f.mallowDrbg);
    auto accepted = mallow.accept(client.helloMessage(),
                                  f.clientKeys.pub);
    // Mallow cannot even accept: decrypting the premaster fails.
    EXPECT_FALSE(accepted.isOk());
}

TEST(SecureChannelTest, TamperedServerHelloRejected)
{
    ChannelFixture f;
    ClientHandshake client("alice", "bob", f.clientKeys,
                           f.serverKeys.pub, f.clientDrbg);
    ServerHandshake server("bob", f.serverKeys, f.serverDrbg);
    auto accepted = server.accept(client.helloMessage(), f.clientKeys.pub);
    ASSERT_TRUE(accepted.isOk());
    Bytes reply = accepted.value().reply;
    reply[reply.size() / 2] ^= 0x01;
    EXPECT_FALSE(client.finish(reply).isOk());
}

TEST(SecureChannelTest, UnestablishedChannelRefusesUse)
{
    SecureChannel idle;
    EXPECT_FALSE(idle.established());
    EXPECT_THROW(idle.seal(toBytes("x")), std::logic_error);
    EXPECT_FALSE(idle.open(toBytes("x")).isOk());
}

TEST(SecureChannelTest, EmptyAndLargePayloads)
{
    ChannelFixture f;
    auto [client, server] = f.establish();
    auto openedEmpty = server.open(client.seal({}));
    ASSERT_TRUE(openedEmpty.isOk());
    EXPECT_TRUE(openedEmpty.value().empty());

    Rng rng(3);
    const Bytes big = rng.nextBytes(64 * 1024);
    auto openedBig = server.open(client.seal(big));
    ASSERT_TRUE(openedBig.isOk());
    EXPECT_EQ(openedBig.value(), big);
}

} // namespace
} // namespace monatt::net
