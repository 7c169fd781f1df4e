/**
 * @file
 * SecureEndpoint: lazy channel establishment over the simulated
 * network, message queuing during handshakes, bidirectional traffic,
 * and resistance to on-wire manipulation.
 */

#include <gtest/gtest.h>

#include "net/secure_endpoint.h"
#include "sim/event_queue.h"

namespace monatt::net
{
namespace
{

struct EndpointFixture
{
    sim::EventQueue events;
    Network net{events};
    KeyDirectory dir;
    crypto::RsaKeyPair aliceKeys;
    crypto::RsaKeyPair bobKeys;
    std::unique_ptr<SecureEndpoint> alice;
    std::unique_ptr<SecureEndpoint> bob;
    std::vector<std::pair<NodeId, Bytes>> aliceInbox;
    std::vector<std::pair<NodeId, Bytes>> bobInbox;

    EndpointFixture()
    {
        Rng rng(0x77);
        aliceKeys = crypto::rsaGenerateKeyPair(512, rng);
        bobKeys = crypto::rsaGenerateKeyPair(512, rng);
        dir.publish("alice", aliceKeys.pub);
        dir.publish("bob", bobKeys.pub);
        alice = std::make_unique<SecureEndpoint>(
            net, "alice", aliceKeys, dir, toBytes("alice-seed"));
        bob = std::make_unique<SecureEndpoint>(net, "bob", bobKeys, dir,
                                               toBytes("bob-seed"));
        alice->onMessage([this](const NodeId &from, const Bytes &msg) {
            aliceInbox.emplace_back(from, msg);
        });
        bob->onMessage([this](const NodeId &from, const Bytes &msg) {
            bobInbox.emplace_back(from, msg);
        });
    }
};

TEST(SecureEndpointTest, FirstSendEstablishesAndDelivers)
{
    EndpointFixture f;
    f.alice->sendSecure("bob", toBytes("hello bob"));
    f.events.runAll();
    ASSERT_EQ(f.bobInbox.size(), 1u);
    EXPECT_EQ(f.bobInbox[0].first, "alice");
    EXPECT_EQ(toString(f.bobInbox[0].second), "hello bob");
    EXPECT_TRUE(f.alice->channelOpen("bob"));
}

TEST(SecureEndpointTest, QueueDrainsInOrder)
{
    EndpointFixture f;
    f.alice->sendSecure("bob", toBytes("one"));
    f.alice->sendSecure("bob", toBytes("two"));
    f.alice->sendSecure("bob", toBytes("three"));
    f.events.runAll();
    ASSERT_EQ(f.bobInbox.size(), 3u);
    EXPECT_EQ(toString(f.bobInbox[0].second), "one");
    EXPECT_EQ(toString(f.bobInbox[1].second), "two");
    EXPECT_EQ(toString(f.bobInbox[2].second), "three");
}

TEST(SecureEndpointTest, BidirectionalUsesIndependentChannels)
{
    EndpointFixture f;
    f.alice->sendSecure("bob", toBytes("ping"));
    f.events.runAll();
    f.bob->sendSecure("alice", toBytes("pong"));
    f.events.runAll();
    ASSERT_EQ(f.aliceInbox.size(), 1u);
    EXPECT_EQ(toString(f.aliceInbox[0].second), "pong");
    EXPECT_TRUE(f.bob->channelOpen("alice"));
}

TEST(SecureEndpointTest, UnknownPeerIsRefusedLocally)
{
    EndpointFixture f;
    f.alice->sendSecure("charlie", toBytes("anyone there?"));
    f.events.runAll();
    EXPECT_EQ(f.net.stats().sent, 0u);
}

TEST(SecureEndpointTest, OnWireTamperingIsRejectedNotDelivered)
{
    EndpointFixture f;
    // Establish first, then tamper with data records.
    f.alice->sendSecure("bob", toBytes("clean"));
    f.events.runAll();
    ASSERT_EQ(f.bobInbox.size(), 1u);

    f.net.setAdversary([](const Envelope &env) {
        Envelope out = env;
        if (!out.payload.empty())
            out.payload[out.payload.size() / 2] ^= 0x01;
        return std::optional<Envelope>{out};
    });
    f.alice->sendSecure("bob", toBytes("tampered in flight"));
    f.events.runAll();
    EXPECT_EQ(f.bobInbox.size(), 1u); // Nothing new delivered.
    EXPECT_GE(f.bob->stats().rejectedRecords, 1u);
}

TEST(SecureEndpointTest, WireReplayIsRejected)
{
    EndpointFixture f;
    std::vector<Envelope> captured;
    f.net.setAdversary([&](const Envelope &env) {
        captured.push_back(env);
        return env;
    });
    f.alice->sendSecure("bob", toBytes("original"));
    f.events.runAll();
    ASSERT_EQ(f.bobInbox.size(), 1u);

    // Replay every captured datagram (handshakes and data).
    for (const Envelope &env : captured)
        f.net.inject(env);
    f.events.runAll();
    EXPECT_EQ(f.bobInbox.size(), 1u) << "replay must not deliver";
    EXPECT_GE(f.bob->stats().rejectedRecords +
                  f.bob->stats().rejectedHandshakes,
              1u);
}

TEST(SecureEndpointTest, ForgedSourceHandshakeRejected)
{
    EndpointFixture f;
    // Mallow (no directory entry / using alice's name with his own
    // key) cannot open a channel to bob.
    Rng rng(0x99);
    const auto mallowKeys = crypto::rsaGenerateKeyPair(512, rng);
    SecureEndpoint mallow(f.net, "mallow", mallowKeys, f.dir,
                          toBytes("mallow-seed"));
    // Not published in the directory: bob rejects the handshake.
    mallow.sendSecure("bob", toBytes("let me in"));
    f.events.runAll();
    EXPECT_TRUE(f.bobInbox.empty());
    EXPECT_GE(f.bob->stats().rejectedHandshakes, 1u);
}

TEST(SecureEndpointTest, StatsCountTraffic)
{
    EndpointFixture f;
    f.alice->sendSecure("bob", toBytes("a"));
    f.events.runAll();
    f.alice->sendSecure("bob", toBytes("b"));
    f.events.runAll();
    EXPECT_GE(f.alice->stats().sent, 3u); // Hello + 2 data records.
    EXPECT_EQ(f.bob->stats().received, 2u);
}

// --- Handshake reliability --------------------------------------------

// Every endpoint runs proto::ReliabilityModel::kHello: a lost hello is
// resent after 250 ms, the backoff doubles, and five resends exhaust
// the budget.

TEST(SecureEndpointReliabilityTest, LostHelloIsRetransmitted)
{
    EndpointFixture f;

    // Drop exactly the first datagram (the initial hello).
    int dropped = 0;
    std::vector<SimTime> helloTimes;
    f.net.setAdversary([&](const Envelope &env) {
        if (env.channel == "ssl-hello")
            helloTimes.push_back(f.events.now());
        if (dropped == 0) {
            ++dropped;
            return std::optional<Envelope>{};
        }
        return std::optional<Envelope>{env};
    });

    f.alice->sendSecure("bob", toBytes("eventually"));
    f.events.runAll();
    ASSERT_EQ(f.bobInbox.size(), 1u);
    EXPECT_EQ(toString(f.bobInbox[0].second), "eventually");
    EXPECT_EQ(f.alice->stats().handshakeRetries, 1u);
    EXPECT_EQ(f.alice->stats().deliveryFailures, 0u);
    ASSERT_EQ(helloTimes.size(), 2u);
    EXPECT_EQ(helloTimes[1] - helloTimes[0], msec(250));
}

TEST(SecureEndpointReliabilityTest, ExhaustedRetriesReportFailure)
{
    EndpointFixture f;
    f.net.setAdversary(
        [](const Envelope &) { return std::optional<Envelope>{}; });

    std::vector<std::pair<NodeId, std::size_t>> failures;
    f.alice->onDeliveryFailure(
        [&](const NodeId &peer, std::size_t queued) {
            failures.emplace_back(peer, queued);
        });

    f.alice->sendSecure("bob", toBytes("one"));
    f.alice->sendSecure("bob", toBytes("two"));
    f.events.runAll();

    EXPECT_TRUE(f.bobInbox.empty());
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].first, "bob");
    EXPECT_EQ(failures[0].second, 2u); // Both queued messages lost.
    EXPECT_EQ(f.alice->stats().handshakeRetries, 5u);
    EXPECT_EQ(f.alice->stats().handshakeFailures, 1u);
    EXPECT_EQ(f.alice->stats().deliveryFailures, 2u);
    // The sixth timeout gives up: 250 ms · (1 + 2 + 4 + 8 + 16 + 32).
    EXPECT_EQ(f.events.now(), msec(250) * 63);

    // The failure is not sticky: once the wire heals, a fresh send
    // re-initiates the handshake and delivers.
    f.net.setAdversary({});
    f.alice->sendSecure("bob", toBytes("after recovery"));
    f.events.runAll();
    ASSERT_EQ(f.bobInbox.size(), 1u);
    EXPECT_EQ(toString(f.bobInbox[0].second), "after recovery");
}

TEST(SecureEndpointReliabilityTest, DuplicateHelloGetsCachedAccept)
{
    EndpointFixture f;

    // Capture then replay the hello: bob must answer with the cached
    // accept instead of tearing down the live channel.
    std::optional<Envelope> hello;
    f.net.setAdversary([&](const Envelope &env) {
        if (!hello)
            hello = env;
        return std::optional<Envelope>{env};
    });
    f.alice->sendSecure("bob", toBytes("first"));
    f.events.runAll();
    ASSERT_EQ(f.bobInbox.size(), 1u);
    ASSERT_TRUE(hello.has_value());

    f.net.inject(*hello);
    f.events.runAll();

    // The channel alice established is still usable.
    f.alice->sendSecure("bob", toBytes("second"));
    f.events.runAll();
    ASSERT_EQ(f.bobInbox.size(), 2u);
    EXPECT_EQ(toString(f.bobInbox[1].second), "second");
}

TEST(SecureEndpointReliabilityTest, DetachedEndpointDropsAndRejoins)
{
    EndpointFixture f;
    f.alice->sendSecure("bob", toBytes("before"));
    f.events.runAll();
    ASSERT_EQ(f.bobInbox.size(), 1u);

    f.bob->detach();
    EXPECT_FALSE(f.bob->attached());
    f.alice->sendSecure("bob", toBytes("while down"));
    f.events.runAll();
    EXPECT_EQ(f.bobInbox.size(), 1u);

    // After re-attach bob lost his session keys, so records alice
    // seals under the pre-crash channel are rejected — this is the
    // blackhole entities escape by calling resetPeer when their retry
    // budgets point at a dead peer.
    f.bob->attach();
    EXPECT_TRUE(f.bob->attached());
    f.alice->sendSecure("bob", toBytes("stale channel"));
    f.events.runAll();
    EXPECT_EQ(f.bobInbox.size(), 1u);
    EXPECT_GE(f.bob->stats().rejectedRecords, 1u);

    // Reset → fresh handshake → delivery resumes.
    f.alice->resetPeer("bob");
    f.alice->sendSecure("bob", toBytes("after restart"));
    f.events.runAll();
    ASSERT_EQ(f.bobInbox.size(), 2u);
    EXPECT_EQ(toString(f.bobInbox.back().second), "after restart");
}

} // namespace
} // namespace monatt::net
