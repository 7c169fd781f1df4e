#include "net/secure_endpoint.h"

#include "common/logging.h"

namespace monatt::net
{

namespace
{

/** Channel tags: "ssl-hello" and "ssl-accept" carry the handshake,
 * "data-out" carries records from a channel's initiator to its
 * responder. Each endpoint sends only on channels it initiated, so a
 * reply travels on the responder's own outbound channel, and every
 * record arrives on the receiver's inbound channel for that peer. */
const char *kHelloTag = "ssl-hello";
const char *kAcceptTag = "ssl-accept";
const char *kDataOutTag = "data-out";

} // namespace

void
KeyDirectory::publish(const NodeId &id, const crypto::RsaPublicKey &key)
{
    keys[id] = key;
}

Result<crypto::RsaPublicKey>
KeyDirectory::lookup(const NodeId &id) const
{
    const auto it = keys.find(id);
    if (it == keys.end())
        return Result<crypto::RsaPublicKey>::error(
            "KeyDirectory: unknown node " + id);
    return Result<crypto::RsaPublicKey>::ok(it->second);
}

SecureEndpoint::SecureEndpoint(Network &network, NodeId id,
                               crypto::RsaKeyPair identityKeys,
                               const KeyDirectory &directory,
                               const Bytes &drbgSeed)
    : net(network), self(std::move(id)), keys(std::move(identityKeys)),
      ownCtx(keys.priv), dir(directory), drbg(drbgSeed)
{
    net.registerNode(self, [this](const Envelope &env) {
        handleDatagram(env);
    });
}

SecureEndpoint::~SecureEndpoint()
{
    if (isAttached)
        net.unregisterNode(self);
}

void
SecureEndpoint::detach()
{
    if (!isAttached)
        return;
    net.unregisterNode(self);
    isAttached = false;
    for (auto &[peer, oc] : outbound)
        net.eventQueue().cancel(oc.exchange.timer);
    // Crash semantics: every session secret and queued plaintext is
    // volatile and dies with the process. Identity keys (disk) and
    // compiled peer public keys (public data) survive.
    outbound.clear();
    inbound.clear();
}

void
SecureEndpoint::resetPeer(const NodeId &peer)
{
    const auto it = outbound.find(peer);
    if (it == outbound.end())
        return;
    if (it->second.state == OutboundChannel::State::Handshaking) {
        failOutbound(peer);
        return;
    }
    net.eventQueue().cancel(it->second.exchange.timer);
    outbound.erase(it);
}

void
SecureEndpoint::attach()
{
    if (isAttached)
        return;
    isAttached = true;
    net.registerNode(self, [this](const Envelope &env) {
        handleDatagram(env);
    });
}

void
SecureEndpoint::transmit(const NodeId &peer, const std::string &channelTag,
                         Bytes payload, std::uint64_t bulkBytes)
{
    Envelope env;
    env.src = self;
    env.dst = peer;
    env.channel = channelTag;
    env.seq = ++seq;
    env.payload = std::move(payload);
    env.bulkBytes = bulkBytes;
    ++counters.sent;
    net.send(std::move(env));
}

void
SecureEndpoint::sendSecure(const NodeId &peer, Bytes plaintext,
                           std::uint64_t bulkBytes)
{
    auto it = outbound.find(peer);
    if (it == outbound.end()) {
        // Start a handshake and queue the message.
        auto serverKey = dir.lookup(peer);
        if (!serverKey) {
            MONATT_LOG(Error, "endpoint")
                << self << ": cannot reach unknown peer " << peer;
            return;
        }
        OutboundChannel oc;
        oc.handshake = std::make_unique<ClientHandshake>(
            self, peer, keys, serverKey.value(), drbg, &ownCtx,
            &peerKeys.get(peer, serverKey.value()));
        oc.queue.emplace_back(std::move(plaintext), bulkBytes);
        oc.helloBytes = oc.handshake->helloMessage();
        oc.exchange.arm(net.eventQueue().now());
        Bytes hello = oc.helloBytes;
        auto &slot = outbound.emplace(peer, std::move(oc)).first->second;
        if (reliability.enabled)
            scheduleHelloRetry(peer, slot);
        transmit(peer, kHelloTag, std::move(hello), 0);
        return;
    }

    OutboundChannel &oc = it->second;
    if (oc.state == OutboundChannel::State::Handshaking) {
        oc.queue.emplace_back(std::move(plaintext), bulkBytes);
        return;
    }
    transmit(peer, kDataOutTag, oc.channel.seal(plaintext), bulkBytes);
}

bool
SecureEndpoint::channelOpen(const NodeId &peer) const
{
    const auto it = outbound.find(peer);
    return it != outbound.end() &&
           it->second.state == OutboundChannel::State::Open;
}

void
SecureEndpoint::handleDatagram(const Envelope &env)
{
    if (env.channel == kHelloTag) {
        handleHello(env);
    } else if (env.channel == kAcceptTag) {
        handleAccept(env);
    } else if (env.channel == kDataOutTag) {
        handleData(env);
    } else {
        MONATT_LOG(Warn, "endpoint")
            << self << ": unknown channel tag " << env.channel;
    }
}

void
SecureEndpoint::handleHello(const Envelope &env)
{
    // Idempotent accept: a duplicated or retransmitted hello must not
    // replace the channel it already produced (that would invalidate
    // records sealed under the first accept) nor draw fresh DRBG
    // output. Retransmit the cached accept instead.
    const auto known = inbound.find(env.src);
    if (known != inbound.end() && known->second.lastHello == env.payload) {
        transmit(env.src, kAcceptTag, Bytes(known->second.cachedAccept),
                 0);
        return;
    }

    auto clientKey = dir.lookup(env.src);
    if (!clientKey) {
        ++counters.rejectedHandshakes;
        return;
    }
    ServerHandshake hs(self, keys, drbg, &ownCtx);
    auto accepted = hs.accept(env.payload, clientKey.value(),
                              &peerKeys.get(env.src, clientKey.value()));
    if (!accepted) {
        ++counters.rejectedHandshakes;
        MONATT_LOG(Warn, "endpoint")
            << self << ": rejected handshake from " << env.src << ": "
            << accepted.errorMessage();
        return;
    }
    // The envelope src header is attacker-controlled, but accept()
    // verified the hello's signature against env.src's published key,
    // so a forged src would have failed verification above.
    // A *different* hello from a known peer means the peer lost its
    // session state (e.g. it crashed and restarted) and is
    // re-handshaking. Our own outbound channel to it — sealed against
    // the peer's discarded keys — is equally stale: drop an Open one
    // so the next send renegotiates instead of producing records the
    // peer can only reject. An in-progress handshake is left alone
    // (its accept is still in flight and will complete normally).
    if (known != inbound.end()) {
        const auto out = outbound.find(env.src);
        if (out != outbound.end() &&
            out->second.state == OutboundChannel::State::Open)
            outbound.erase(out);
    }
    InboundChannel ic;
    ic.channel = std::move(accepted.value().channel);
    ic.lastHello = env.payload;
    ic.cachedAccept = accepted.value().reply;
    inbound[env.src] = std::move(ic);
    transmit(env.src, kAcceptTag, std::move(accepted.value().reply), 0);
}

void
SecureEndpoint::handleAccept(const Envelope &env)
{
    auto it = outbound.find(env.src);
    if (it == outbound.end() ||
        it->second.state != OutboundChannel::State::Handshaking) {
        ++counters.rejectedHandshakes;
        return;
    }
    OutboundChannel &oc = it->second;
    auto channel = oc.handshake->finish(env.payload);
    if (!channel) {
        ++counters.rejectedHandshakes;
        MONATT_LOG(Warn, "endpoint")
            << self << ": handshake with " << env.src
            << " failed: " << channel.errorMessage();
        // A corrupted accept consumed the handshake state: re-initiate
        // from scratch (fresh hello) instead of silently discarding
        // the queued plaintexts, up to the retry budget.
        net.eventQueue().cancel(oc.exchange.timer);
        if (reliability.enabled && oc.exchange.expire(reliability.hello()) ==
                                       sim::Exchange::Expiry::Resend) {
            ++counters.handshakeRetries;
            auto serverKey = dir.lookup(env.src);
            if (serverKey) {
                oc.handshake = std::make_unique<ClientHandshake>(
                    self, env.src, keys, serverKey.value(), drbg,
                    &ownCtx, &peerKeys.get(env.src, serverKey.value()));
                oc.helloBytes = oc.handshake->helloMessage();
                scheduleHelloRetry(env.src, oc);
                transmit(env.src, kHelloTag, Bytes(oc.helloBytes), 0);
                return;
            }
        }
        failOutbound(env.src);
        return;
    }
    net.eventQueue().cancel(oc.exchange.timer);
    oc.channel = channel.take();
    oc.handshake.reset();
    oc.state = OutboundChannel::State::Open;
    for (auto &[plaintext, bulk] : oc.queue) {
        Bytes sealed = oc.channel.seal(plaintext);
        transmit(env.src, kDataOutTag, std::move(sealed), bulk);
    }
    oc.queue.clear();
}

void
SecureEndpoint::scheduleHelloRetry(const NodeId &peer, OutboundChannel &oc)
{
    oc.exchange.timer = net.eventQueue().scheduleAfter(
        oc.exchange.timeout(reliability.hello()),
        [this, peer] { helloRetryFired(peer); }, "endpoint.helloRetry");
}

void
SecureEndpoint::helloRetryFired(const NodeId &peer)
{
    const auto it = outbound.find(peer);
    if (it == outbound.end() ||
        it->second.state != OutboundChannel::State::Handshaking)
        return;
    OutboundChannel &oc = it->second;
    if (oc.exchange.expire(reliability.hello()) !=
        sim::Exchange::Expiry::Resend) {
        failOutbound(peer);
        return;
    }
    ++counters.handshakeRetries;
    // Identical retransmission of the cached hello: no DRBG draws, so
    // the responder's dedup cache recognizes it and replays the same
    // accept.
    scheduleHelloRetry(peer, oc);
    transmit(peer, kHelloTag, Bytes(oc.helloBytes), 0);
}

void
SecureEndpoint::failOutbound(const NodeId &peer)
{
    const auto it = outbound.find(peer);
    if (it == outbound.end())
        return;
    OutboundChannel &oc = it->second;
    net.eventQueue().cancel(oc.exchange.timer);
    const std::size_t lost = oc.queue.size();
    ++counters.handshakeFailures;
    counters.deliveryFailures += lost;
    MONATT_LOG(Warn, "endpoint")
        << self << ": handshake with " << peer << " abandoned, " << lost
        << " queued message(s) undeliverable";
    outbound.erase(it);
    if (deliveryFailure_)
        deliveryFailure_(peer, lost);
}

void
SecureEndpoint::handleData(const Envelope &env)
{
    const auto it = inbound.find(env.src);
    if (it == inbound.end()) {
        ++counters.rejectedRecords;
        MONATT_LOG(Warn, "endpoint")
            << self << ": data on unestablished channel from "
            << env.src;
        return;
    }

    auto plaintext = it->second.channel.open(env.payload);
    if (!plaintext) {
        ++counters.rejectedRecords;
        MONATT_LOG(Warn, "endpoint")
            << self << ": rejected record from " << env.src << ": "
            << plaintext.errorMessage();
        return;
    }
    ++counters.received;
    if (handler_)
        handler_(env.src, plaintext.value());
}

} // namespace monatt::net
