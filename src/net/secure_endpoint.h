/**
 * @file
 * SecureEndpoint: an entity's network identity plus its managed
 * secure channels.
 *
 * Each CloudMonatt entity (customer, Cloud Controller, Attestation
 * Server, privacy CA, each Cloud Server) owns one SecureEndpoint. It
 * registers the entity on the simulated network, establishes
 * SSL-like channels lazily (one per ordered peer pair, so crossed
 * handshakes never conflict), queues outbound messages while a
 * handshake is in flight, and delivers authenticated-decrypted
 * plaintexts to the entity's message handler. Peer identity keys come
 * from a KeyDirectory — the certificate infrastructure the paper
 * assumes ("this is minimally what is required for SSL support, and
 * is already present in all cloud servers").
 */

#ifndef MONATT_NET_SECURE_ENDPOINT_H
#define MONATT_NET_SECURE_ENDPOINT_H

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "net/network.h"
#include "net/secure_channel.h"
#include "sim/exchange.h"

namespace monatt::net
{

/** Trusted directory of long-term identity public keys. */
class KeyDirectory
{
  public:
    /** Register (or replace) a node's public identity key. */
    void publish(const NodeId &id, const crypto::RsaPublicKey &key);

    /** Look up a key; error when the node is unknown. */
    Result<crypto::RsaPublicKey> lookup(const NodeId &id) const;

    /** True when the node has a published key. */
    bool has(const NodeId &id) const { return keys.count(id) != 0; }

  private:
    std::map<NodeId, crypto::RsaPublicKey> keys;
};

/** Per-endpoint delivery statistics (attack-visible effects). */
struct EndpointStats
{
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t rejectedRecords = 0;   //!< MAC/replay/decode failures.
    std::uint64_t rejectedHandshakes = 0;
    std::uint64_t handshakeRetries = 0;  //!< Hello retransmissions.
    std::uint64_t handshakeFailures = 0; //!< Budgets exhausted.
    std::uint64_t deliveryFailures = 0;  //!< Plaintexts surfaced as lost.
};

/**
 * Handshake reliability knobs. Disabled by default so a bare endpoint
 * behaves exactly as before; entities enable it from the cloud-wide
 * proto::ReliabilityModel. Retry timers are schedule-then-cancel: on a
 * fault-free run every timer is cancelled before firing, so enabling
 * this does not perturb deterministic runs.
 */
struct EndpointReliability
{
    bool enabled = false;
    SimTime handshakeRto = msec(250);
    int handshakeRetryLimit = 5;

    /** The hello's retransmit policy (a fixed RTO). */
    sim::RetryPolicy hello() const
    {
        return {handshakeRto, handshakeRetryLimit};
    }
};

/** An entity's secure network attachment. */
class SecureEndpoint
{
  public:
    /** Plaintext delivery: (peer id, message bytes). */
    using MessageHandler =
        std::function<void(const NodeId &, const Bytes &)>;

    /** Delivery failure: (peer id, number of plaintexts lost). */
    using DeliveryFailureHandler =
        std::function<void(const NodeId &, std::size_t)>;

    /**
     * @param network The fabric to attach to.
     * @param id This entity's node id.
     * @param identityKeys Long-term identity key pair.
     * @param directory Shared key directory (must outlive this).
     * @param drbgSeed Seed for this endpoint's randomness.
     */
    SecureEndpoint(Network &network, NodeId id,
                   crypto::RsaKeyPair identityKeys,
                   const KeyDirectory &directory, const Bytes &drbgSeed);

    ~SecureEndpoint();

    SecureEndpoint(const SecureEndpoint &) = delete;
    SecureEndpoint &operator=(const SecureEndpoint &) = delete;

    /** Install the plaintext message handler. */
    void onMessage(MessageHandler handler)
    {
        handler_ = std::move(handler);
    }

    /**
     * Install a handler invoked when queued plaintexts are abandoned
     * after the handshake retry budget is exhausted (previously they
     * were silently discarded).
     */
    void onDeliveryFailure(DeliveryFailureHandler handler)
    {
        deliveryFailure_ = std::move(handler);
    }

    /** Configure handshake retransmission. */
    void setReliability(EndpointReliability r) { reliability = r; }

    /**
     * Forget the outbound channel to `peer` so the next send
     * re-handshakes from scratch. Entities call this when higher-level
     * retry budgets point at a dead peer: a crashed-and-restarted peer
     * loses its session keys, so records sealed under the old channel
     * would be rejected forever. Queued plaintexts of an in-flight
     * handshake are surfaced through the delivery-failure handler.
     */
    void resetPeer(const NodeId &peer);

    /**
     * Simulate a crash of this entity: unregister from the network and
     * drop all volatile channel state (open channels, in-flight
     * handshakes, queued plaintexts, handshake caches). Long-term
     * identity keys survive — they live on disk.
     */
    void detach();

    /** Rejoin the network after a crash (fresh channel state). */
    void attach();

    /** True while attached to the network. */
    bool attached() const { return isAttached; }

    /**
     * Send `plaintext` to `peer` over a secure channel, establishing
     * one first if needed (messages queue during the handshake).
     * Takes the plaintext by value so callers can move freshly encoded
     * buffers all the way into the sealed envelope without a copy.
     *
     * @param bulkBytes Size of modeled bulk data accompanying the
     *        message (charged to link bandwidth).
     */
    void sendSecure(const NodeId &peer, Bytes plaintext,
                    std::uint64_t bulkBytes = 0);

    /** This endpoint's node id. */
    const NodeId &id() const { return self; }

    /** Delivery statistics. */
    const EndpointStats &stats() const { return counters; }

    /** True when a channel to `peer` (initiated by us) is open. */
    bool channelOpen(const NodeId &peer) const;

  private:
    struct OutboundChannel
    {
        enum class State { Handshaking, Open } state = State::Handshaking;
        std::unique_ptr<ClientHandshake> handshake;
        SecureChannel channel;
        std::deque<std::pair<Bytes, std::uint64_t>> queue;
        Bytes helloBytes;       //!< For identical retransmission.
        sim::Exchange exchange; //!< The hello's.
    };

    /** A peer-initiated channel plus its handshake-dedup cache. */
    struct InboundChannel
    {
        SecureChannel channel;
        Bytes lastHello;    //!< Payload that produced this channel.
        Bytes cachedAccept; //!< Reply to retransmit on duplicate hello.
    };

    void handleDatagram(const Envelope &env);
    void handleHello(const Envelope &env);
    void handleAccept(const Envelope &env);
    void handleData(const Envelope &env);
    void transmit(const NodeId &peer, const std::string &channelTag,
                  Bytes payload, std::uint64_t bulkBytes);

    /** Arm (or re-arm) the hello retransmission timer for `peer`. */
    void scheduleHelloRetry(const NodeId &peer, OutboundChannel &oc);

    /** Timer body: resend the cached hello or give up. */
    void helloRetryFired(const NodeId &peer);

    /** Exhausted budget: surface queued plaintexts as lost. */
    void failOutbound(const NodeId &peer);

    Network &net;
    NodeId self;
    crypto::RsaKeyPair keys;
    /** Compiled own identity key, shared by every handshake this
     * endpoint runs (session-key signature context reuse). */
    crypto::RsaPrivateContext ownCtx;
    const KeyDirectory &dir;
    crypto::HmacDrbg drbg;
    MessageHandler handler_;
    DeliveryFailureHandler deliveryFailure_;
    EndpointReliability reliability;
    bool isAttached = true;

    /** Compiled peer identity keys, reused across every handshake
     * with a peer (the directory may re-publish a rotated key). */
    crypto::RsaPublicContextCache peerKeys;

    /** Channels we initiated, keyed by peer. */
    std::map<NodeId, OutboundChannel> outbound;

    /** Channels peers initiated toward us, keyed by peer. */
    std::map<NodeId, InboundChannel> inbound;

    std::uint64_t seq = 0;
    EndpointStats counters;
};

} // namespace monatt::net

#endif // MONATT_NET_SECURE_ENDPOINT_H
