#include "net/secure_channel.h"

#include <array>
#include <stdexcept>

#include "common/codec.h"
#include "crypto/sha256.h"

namespace monatt::net
{

namespace
{

constexpr std::uint8_t kDirClientToServer = 0x01;
constexpr std::uint8_t kDirServerToClient = 0x02;
const char *kKdfInfo = "monatt-ssl-v1";

/** Hash of the signed portion of a ClientHello. */
Bytes
clientTranscript(const std::string &clientId, const std::string &serverId,
                 const Bytes &clientNonce, const Bytes &clientPub,
                 const Bytes &encPremaster)
{
    ByteWriter w;
    w.putString("client-hello");
    w.putString(clientId);
    w.putString(serverId);
    w.putBytes(clientNonce);
    w.putBytes(clientPub);
    w.putBytes(encPremaster);
    return crypto::Sha256::hash(w.data());
}

/** Hash of the signed portion of a ServerHello. */
Bytes
serverTranscript(const Bytes &clientTranscriptHash,
                 const Bytes &serverNonce)
{
    ByteWriter w;
    w.putString("server-hello");
    w.putBytes(clientTranscriptHash);
    w.putBytes(serverNonce);
    return crypto::Sha256::hash(w.data());
}

/** The lent compiled key, or `slot` compiled from `key`. */
template <typename Context, typename Key>
const Context &
compiled(const Context *lent, std::optional<Context> &slot, const Key &key)
{
    return lent ? *lent : slot.emplace(key);
}

/** Record layout: u64 seq || u32 len || ciphertext || tag. */
constexpr std::size_t kRecordHeader = 8 + 4;
constexpr std::size_t kTagSize = crypto::kSha256DigestSize;

/** 12-byte CTR nonce: four zero bytes, then the little-endian
 * sequence number. */
std::array<std::uint8_t, 12>
seqNonce(std::uint64_t seq)
{
    std::array<std::uint8_t, 12> nonce{};
    for (int i = 0; i < 8; ++i)
        nonce[4 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
    return nonce;
}

} // namespace

SecureChannel::Direction::Direction(const Bytes &encKey,
                                    const Bytes &macKey, const Bytes &sid,
                                    std::uint8_t dir)
    : aes(encKey), mac(macKey), macHead(mac.innerContext())
{
    ByteWriter w;
    w.putBytes(sid);
    w.putU8(dir);
    macHead.update(w.data());
}

void
SecureChannel::Direction::tag(const std::uint8_t *record, std::size_t len,
                              std::uint8_t out[kTagSize]) const
{
    crypto::Sha256 ctx = macHead;
    ctx.update(record, len);
    mac.finish(ctx, out);
}

void
SecureChannel::derive(SecureChannel &ch, const Bytes &premaster,
                      const Bytes &clientNonce, const Bytes &serverNonce,
                      bool isClient)
{
    Bytes salt = clientNonce;
    append(salt, serverNonce);
    const Bytes material = crypto::hkdf(salt, premaster,
                                        toBytes(kKdfInfo), 16 + 96);
    ch.sid = Bytes(material.begin(), material.begin() + 16);
    const Bytes c2sEnc(material.begin() + 16, material.begin() + 32);
    const Bytes c2sMac(material.begin() + 32, material.begin() + 64);
    const Bytes s2cEnc(material.begin() + 64, material.begin() + 80);
    const Bytes s2cMac(material.begin() + 80, material.begin() + 112);

    if (isClient) {
        ch.send.emplace(c2sEnc, c2sMac, ch.sid, kDirClientToServer);
        ch.recv.emplace(s2cEnc, s2cMac, ch.sid, kDirServerToClient);
    } else {
        ch.send.emplace(s2cEnc, s2cMac, ch.sid, kDirServerToClient);
        ch.recv.emplace(c2sEnc, c2sMac, ch.sid, kDirClientToServer);
    }
}

Bytes
SecureChannel::seal(const Bytes &plaintext)
{
    if (!send)
        throw std::logic_error("SecureChannel::seal: not established");

    // The record's first kRecordHeader + n bytes are exactly the MAC
    // input after the head: encrypt in place, MAC, append the tag.
    const std::uint64_t seq = ++sendSeq;
    const std::size_t n = plaintext.size();
    ByteWriter w;
    w.reserve(kRecordHeader + n + kTagSize);
    w.putU64(seq);
    w.putU32(static_cast<std::uint32_t>(n));
    Bytes record = w.take();
    record.resize(kRecordHeader + n + kTagSize);
    std::uint8_t *ciphertext = record.data() + kRecordHeader;
    send->aes.ctr(seqNonce(seq).data(), plaintext.data(), ciphertext, n);
    send->tag(record.data(), kRecordHeader + n, ciphertext + n);
    return record;
}

Result<Bytes>
SecureChannel::open(const Bytes &record)
{
    if (!recv)
        return Result<Bytes>::error("channel not established");

    ByteReader r(record);
    auto seq = r.getU64();
    auto len = r.getU32();
    if (!seq || !len || r.remaining() < len.value())
        return Result<Bytes>::error("malformed record framing");
    const std::size_t n = len.value();
    if (r.remaining() - n != kTagSize)
        return Result<Bytes>::error("malformed record MAC");

    // Verify over the record in place before touching the ciphertext.
    const std::uint8_t *ciphertext = record.data() + kRecordHeader;
    std::uint8_t expected[kTagSize];
    recv->tag(record.data(), kRecordHeader + n, expected);
    if (!constantTimeEqual(expected, ciphertext + n, kTagSize))
        return Result<Bytes>::error("record MAC verification failed");

    // Replay / reorder protection: sequence must strictly increase.
    if (sawRecv && seq.value() <= lastRecvSeq)
        return Result<Bytes>::error("replayed or reordered record");
    lastRecvSeq = seq.value();
    sawRecv = true;

    Bytes plaintext(n);
    recv->aes.ctr(seqNonce(seq.value()).data(), ciphertext,
                  plaintext.data(), n);
    return Result<Bytes>::ok(std::move(plaintext));
}

ClientHandshake::ClientHandshake(std::string clientId,
                                 std::string serverId,
                                 const crypto::RsaKeyPair &clientKeys,
                                 const crypto::RsaPublicKey &serverPub,
                                 crypto::HmacDrbg &drbg,
                                 const crypto::RsaPrivateContext *clientCtx,
                                 const crypto::RsaPublicContext *serverCtx)
    : client(std::move(clientId)), server(std::move(serverId)),
      serverKey(compiled(serverCtx, serverCompiled, serverPub))
{
    clientNonce = drbg.generate(32);
    premaster = drbg.generate(32);

    Rng padRng = drbg.forkRng();
    auto encPremaster = crypto::rsaEncrypt(serverKey, premaster, padRng);
    if (!encPremaster)
        throw std::logic_error("ClientHandshake: premaster encryption "
                               "failed: " + encPremaster.errorMessage());

    const Bytes clientPub = clientKeys.pub.encode();
    transcriptHash = clientTranscript(client, server, clientNonce,
                                      clientPub, encPremaster.value());
    std::optional<crypto::RsaPrivateContext> clientCompiled;
    const Bytes signature = crypto::rsaSign(
        compiled(clientCtx, clientCompiled, clientKeys.priv),
        transcriptHash);

    ByteWriter w;
    w.putString(client);
    w.putBytes(clientNonce);
    w.putBytes(clientPub);
    w.putBytes(encPremaster.value());
    w.putBytes(signature);
    hello = w.take();
}

Result<SecureChannel>
ClientHandshake::finish(const Bytes &serverHello)
{
    ByteReader r(serverHello);
    auto serverNonce = r.getBytes();
    auto signature = r.getBytes();
    auto verifyData = r.getBytes();
    if (!serverNonce || !signature || !verifyData || !r.atEnd())
        return Result<SecureChannel>::error("malformed ServerHello");

    const Bytes toSign = serverTranscript(transcriptHash,
                                          serverNonce.value());
    if (!crypto::rsaVerify(serverKey, toSign, signature.value()))
        return Result<SecureChannel>::error(
            "server identity signature verification failed");

    SecureChannel channel;
    SecureChannel::derive(channel, premaster, clientNonce,
                          serverNonce.value(), /*isClient=*/true);

    // Check the server's key-confirmation MAC: proves the server could
    // actually decrypt the premaster (not just sign a transcript).
    const Bytes expected =
        channel.recv->mac.mac(toBytes("server-finished"));
    if (!constantTimeEqual(expected, verifyData.value()))
        return Result<SecureChannel>::error(
            "server key-confirmation failed");

    return Result<SecureChannel>::ok(std::move(channel));
}

ServerHandshake::ServerHandshake(std::string serverId,
                                 const crypto::RsaKeyPair &serverKeys,
                                 crypto::HmacDrbg &drbg,
                                 const crypto::RsaPrivateContext *ownCtx)
    : server(std::move(serverId)), rng(drbg),
      ownKey(compiled(ownCtx, ownCompiled, serverKeys.priv))
{
}

Result<ServerHandshake::Accepted>
ServerHandshake::accept(const Bytes &clientHello,
                        const crypto::RsaPublicKey &expectedClientPub,
                        const crypto::RsaPublicContext *clientCtx)
{
    using R = Result<Accepted>;

    ByteReader r(clientHello);
    auto clientId = r.getString();
    auto clientNonce = r.getBytes();
    auto clientPub = r.getBytes();
    auto encPremaster = r.getBytes();
    auto signature = r.getBytes();
    if (!clientId || !clientNonce || !clientPub || !encPremaster ||
        !signature || !r.atEnd()) {
        return R::error("malformed ClientHello");
    }

    auto claimedPub = crypto::RsaPublicKey::decode(clientPub.value());
    if (!claimedPub)
        return R::error("ClientHello: bad public key encoding");
    if (!(claimedPub.value() == expectedClientPub))
        return R::error("ClientHello: unexpected client identity key");

    const Bytes transcript = clientTranscript(
        clientId.value(), server, clientNonce.value(), clientPub.value(),
        encPremaster.value());
    // Compiled only now: expectedClientPub equals a decoded key, so
    // its modulus is odd.
    std::optional<crypto::RsaPublicContext> clientCompiled;
    if (!crypto::rsaVerify(
            compiled(clientCtx, clientCompiled, expectedClientPub),
            transcript, signature.value()))
        return R::error("client identity signature verification failed");

    auto premaster = crypto::rsaDecrypt(ownKey, encPremaster.value());
    if (!premaster)
        return R::error("premaster decryption failed");

    const Bytes serverNonce = rng.generate(32);
    const Bytes toSign = serverTranscript(transcript, serverNonce);
    const Bytes serverSig = crypto::rsaSign(ownKey, toSign);

    Accepted out;
    SecureChannel::derive(out.channel, premaster.value(),
                          clientNonce.value(), serverNonce,
                          /*isClient=*/false);
    out.clientId = clientId.value();

    const Bytes verifyData =
        out.channel.send->mac.mac(toBytes("server-finished"));

    ByteWriter w;
    w.putBytes(serverNonce);
    w.putBytes(serverSig);
    w.putBytes(verifyData);
    out.reply = w.take();
    return R::ok(std::move(out));
}

} // namespace monatt::net
