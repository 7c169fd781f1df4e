/**
 * @file
 * SSL-like authenticated secure channel.
 *
 * §3.4.1: "the CloudMonatt architecture expects the customer, Cloud
 * Controller, Attestation Server and secure Cloud Servers to implement
 * the SSL protocol. Our contribution is defining the contents of the
 * SSL messages...". This module is that SSL substrate: a two-message
 * handshake that (a) authenticates both endpoints with their long-term
 * RSA identity key pairs, (b) transports a fresh premaster secret
 * under the server's public key, and (c) derives the symmetric session
 * keys of Figure 3 (Kx between customer and controller, Ky between
 * controller and attestation server, Kz between attestation server and
 * cloud server). After the handshake, records are protected with
 * AES-128-CTR and HMAC-SHA-256 (encrypt-then-MAC) with strictly
 * increasing sequence numbers for replay protection.
 */

#ifndef MONATT_NET_SECURE_CHANNEL_H
#define MONATT_NET_SECURE_CHANNEL_H

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/aes.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"

namespace monatt::net
{

/**
 * An established, directional secure channel endpoint.
 *
 * Each party holds one SecureChannel; the pair shares a session id and
 * mirrored directional keys. Not copyable across trust domains in the
 * real system — here, produced only by the handshake classes below.
 */
class SecureChannel
{
  public:
    /** Unestablished channel; seal/open fail until a handshake runs. */
    SecureChannel() = default;

    /** True when the handshake completed. */
    bool established() const { return send.has_value(); }

    /** 16-byte session identifier shared by both endpoints. */
    const Bytes &sessionId() const { return sid; }

    /**
     * Encrypt-then-MAC a payload into a record.
     * @throws std::logic_error when the channel is not established.
     */
    Bytes seal(const Bytes &plaintext);

    /**
     * Verify and decrypt a record.
     *
     * Fails on MAC mismatch, wrong session, malformed framing, or a
     * non-increasing sequence number (replay).
     */
    Result<Bytes> open(const Bytes &record);

    /** Records sealed so far. */
    std::uint64_t sealedCount() const { return sendSeq; }

  private:
    friend class ClientHandshake;
    friend class ServerHandshake;

    /** One direction's record keys, expanded once by derive(). */
    struct Direction
    {
        Direction(const Bytes &encKey, const Bytes &macKey,
                  const Bytes &sid, std::uint8_t dir);

        /** MAC of the head, then the record's first `len` bytes. */
        void tag(const std::uint8_t *record, std::size_t len,
                 std::uint8_t out[crypto::kSha256DigestSize]) const;

        crypto::Aes128 aes;
        crypto::HmacSha256 mac;
        /** mac's inner context with the head of every record's MAC
         * input, u32 len(sid) || sid || dir, already absorbed. */
        crypto::Sha256 macHead;
    };

    /** Derive session id + directional keys from handshake secrets. */
    static void derive(SecureChannel &ch, const Bytes &premaster,
                       const Bytes &clientNonce, const Bytes &serverNonce,
                       bool isClient);

    Bytes sid;
    std::optional<Direction> send;
    std::optional<Direction> recv;
    std::uint64_t sendSeq = 0;
    std::uint64_t lastRecvSeq = 0;
    bool sawRecv = false;
};

/**
 * Client (initiator) side of the handshake.
 *
 * Usage: build, send helloMessage() to the server, feed the reply to
 * finish() to obtain the established channel.
 *
 * Every RSA operation runs through a compiled key. A caller that
 * keeps compiled keys across handshakes (SecureEndpoint does) lends
 * them; otherwise the handshake compiles its own. Either way the
 * bytes are the same. Not copyable: it may point into itself.
 */
class ClientHandshake
{
  public:
    /**
     * @param clientId This endpoint's node id.
     * @param serverId The peer's node id.
     * @param clientKeys This endpoint's long-term identity key pair.
     * @param serverPub The peer's long-term public identity key
     *                  (obtained from the cloud's certificate
     *                  infrastructure).
     * @param drbg Randomness source for nonce and premaster.
     * @param clientCtx Compiled clientKeys.priv to lend (it must
     *        outlive the constructor), or null to compile one for the
     *        hello signature.
     * @param serverCtx Compiled serverPub to lend (it must outlive the
     *        handshake), or null for the handshake to compile and
     *        keep its own, for the premaster encryption and the
     *        ServerHello verification.
     */
    ClientHandshake(std::string clientId, std::string serverId,
                    const crypto::RsaKeyPair &clientKeys,
                    const crypto::RsaPublicKey &serverPub,
                    crypto::HmacDrbg &drbg,
                    const crypto::RsaPrivateContext *clientCtx = nullptr,
                    const crypto::RsaPublicContext *serverCtx = nullptr);

    ClientHandshake(const ClientHandshake &) = delete;
    ClientHandshake &operator=(const ClientHandshake &) = delete;

    /** The ClientHello message to transmit. */
    const Bytes &helloMessage() const { return hello; }

    /** Process the ServerHello; on success yields the channel. */
    Result<SecureChannel> finish(const Bytes &serverHello);

  private:
    std::string client;
    std::string server;
    std::optional<crypto::RsaPublicContext> serverCompiled;
    const crypto::RsaPublicContext &serverKey;
    Bytes clientNonce;
    Bytes premaster;
    Bytes hello;
    Bytes transcriptHash;
};

/**
 * Server (responder) side of the handshake. Lends and compiles keys as
 * ClientHandshake does, and is not copyable for the same reason.
 */
class ServerHandshake
{
  public:
    /**
     * @param ownCtx Compiled serverKeys.priv to lend (it must outlive
     *        the handshake), or null for the handshake to compile and
     *        keep its own, for the premaster decryption and the
     *        ServerHello signature of every accept().
     */
    ServerHandshake(std::string serverId,
                    const crypto::RsaKeyPair &serverKeys,
                    crypto::HmacDrbg &drbg,
                    const crypto::RsaPrivateContext *ownCtx = nullptr);

    ServerHandshake(const ServerHandshake &) = delete;
    ServerHandshake &operator=(const ServerHandshake &) = delete;

    /** Result of a successful accept(). */
    struct Accepted
    {
        Bytes reply;           //!< ServerHello to send back.
        SecureChannel channel; //!< Established channel.
        std::string clientId;  //!< Authenticated peer id.
    };

    /**
     * Verify a ClientHello and produce the ServerHello.
     *
     * @param clientHello The received ClientHello.
     * @param expectedClientPub The client's public identity key, as
     *        known to this server via the cloud's key infrastructure —
     *        a hello signed by any other key is rejected.
     * @param clientCtx Compiled expectedClientPub to lend, or null
     *        to compile one for the hello signature check.
     */
    Result<Accepted> accept(
        const Bytes &clientHello,
        const crypto::RsaPublicKey &expectedClientPub,
        const crypto::RsaPublicContext *clientCtx = nullptr);

  private:
    std::string server;
    crypto::HmacDrbg &rng;
    std::optional<crypto::RsaPrivateContext> ownCompiled;
    const crypto::RsaPrivateContext &ownKey;
};

} // namespace monatt::net

#endif // MONATT_NET_SECURE_CHANNEL_H
