#include "attestation/privacy_ca.h"

#include "common/codec.h"
#include "common/wire.h"
#include "common/logging.h"
#include "tpm/certificate.h"

namespace monatt::attestation
{

using proto::MessageKind;

namespace
{

Bytes
endpointSeed(const std::string &id, std::uint64_t seed)
{
    Bytes material = toBytes("pca-endpoint:" + id);
    for (int i = 0; i < 8; ++i)
        material.push_back(static_cast<std::uint8_t>(seed >> (8 * i)));
    return material;
}

crypto::RsaKeyPair
identityKeys(const std::string &id, std::uint64_t seed)
{
    Bytes material = toBytes("pca-identity:" + id);
    for (int i = 0; i < 8; ++i)
        material.push_back(static_cast<std::uint8_t>(seed >> (8 * i)));
    crypto::HmacDrbg drbg(material);
    Rng rng = drbg.forkRng();
    return crypto::rsaGenerateKeyPair(512, rng);
}

} // namespace

PrivacyCa::PrivacyCa(sim::EventQueue &eq, net::Network &network,
                     net::KeyDirectory &directory, std::string id,
                     proto::TimingModel timingModel, std::uint64_t seed)
    : events(eq), self(std::move(id)), keys(identityKeys(self, seed)),
      signCtx(keys.priv), dir(directory), timing(timingModel),
      endpoint(network, self, keys, directory, endpointSeed(self, seed)),
      store(self)
{
    endpoint.onMessage([this](const net::NodeId &from, const Bytes &msg) {
        handleMessage(from, msg);
    });
}

void
PrivacyCa::handleMessage(const net::NodeId &from, const Bytes &plaintext)
{
    auto unpacked = proto::unpackMessage(plaintext);
    if (!unpacked || unpacked.value().kind != MessageKind::CertRequest)
        return;
    rxFormat_ = unpacked.value().format;
    auto reqR = proto::decodeAs<proto::CertRequest>(rxFormat_,
                                                    unpacked.value().body);
    if (!reqR)
        return;

    // Idempotent issuance: answer a retransmission with the cached
    // response; swallow duplicates of a request still being processed.
    const CertKey key{from, reqR.value().sessionLabel};
    const auto cached = issuedCache.find(key);
    if (cached != issuedCache.end()) {
        endpoint.sendSecure(from,
                            proto::packMessage(MessageKind::CertResponse,
                                               Bytes(cached->second)));
        return;
    }
    if (!inFlight.insert(key).second)
        return;

    // Model the per-request processing delay, then issue.
    events.scheduleAfter(timing.pcaProcessing,
                         [this, req = reqR.take(), from, eraNow = era] {
        if (eraNow == era)
            issue(req, from);
    }, "pca.issue");
}

void
PrivacyCa::issue(const proto::CertRequest &req, const net::NodeId &from)
{
    proto::CertResponse resp;
    resp.sessionLabel = req.sessionLabel;

    // Only the server itself may ask, and its identity signature over
    // AVKs must verify under the published VKs.
    bool identityOk = false;
    if (from == req.serverId) {
        const auto serverKey = dir.lookup(req.serverId);
        identityOk = serverKey && crypto::rsaVerify(serverKey.value(),
                                                    req.avk,
                                                    req.avkSignature);
    }
    if (!identityOk) {
        ++rejections;
        resp.ok = false;
        resp.error = "identity verification failed";
        MONATT_LOG(Warn, "pca")
            << "refused certification for " << req.serverId;
    } else if (auto avk = crypto::RsaPublicKey::decode(req.avk); !avk) {
        ++rejections;
        resp.ok = false;
        resp.error = "malformed attestation key";
    } else {
        const tpm::Certificate cert = tpm::issueCertificate(
            req.sessionLabel, avk.value(), self, ++serial, signCtx);
        resp.ok = true;
        resp.certificate = cert.encode();
    }

    // The dedup cache and journal hold the canonical legacy body
    // (cache hits are resent legacy-framed); only the fresh send uses
    // this node's configured wire format.
    const CertKey key{from, req.sessionLabel};
    inFlight.erase(key);
    const auto [cacheIt, inserted] = issuedCache.emplace(key, resp.encode());
    if (inserted) {
        if (durable && !replaying) {
            store.append(journalTag(JournalType::CertIssued),
                         encodeIssued(key, cacheIt->second));
        }
        issuedOrder.push_back(key);
        while (issuedOrder.size() > issuedCacheCapacity) {
            issuedCache.erase(issuedOrder.front());
            issuedOrder.pop_front();
        }
    }
    endpoint.sendSecure(from, pack(MessageKind::CertResponse, resp));
    commitJournal();
}

// --- Durability: WAL + recovery ---------------------------------------

Bytes
PrivacyCa::encodeIssued(const CertKey &key, const Bytes &encoded) const
{
    // The serial counter rides along so replay restores it without a
    // separate record type (rejected responses mint no serial but
    // still carry the current counter).
    if (taggedJournal()) {
        wire::WireWriter w;
        if (serial != 0)
            w.putVarint(1, serial);
        if (rejections != 0)
            w.putVarint(2, rejections);
        w.putString(3, key.first);
        w.putString(4, key.second);
        w.putLen(5, encoded);
        return w.take();
    }
    ByteWriter w;
    w.putU64(serial);
    w.putU64(rejections);
    w.putString(key.first);
    w.putString(key.second);
    w.putBytes(encoded);
    return w.take();
}

void
PrivacyCa::commitJournal()
{
    if (!durable || replaying)
        return;
    if (store.pendingRecords() > 0)
        store.sync();
    if (ckptPolicy.shouldCheckpoint(store, events.now())) {
        store.checkpoint(snapshotState());
        ckptPolicy.noteCheckpoint();
    }
}

Bytes
PrivacyCa::snapshotState() const
{
    ByteWriter w;
    w.putU64(serial);
    w.putU64(rejections);
    w.putU32(static_cast<std::uint32_t>(issuedOrder.size()));
    for (const CertKey &key : issuedOrder) {
        w.putString(key.first);
        w.putString(key.second);
        w.putBytes(issuedCache.at(key));
    }
    return w.take();
}

void
PrivacyCa::applySnapshot(const Bytes &snapshot)
{
    ByteReader r(snapshot);
    auto serialNo = r.getU64();
    auto rejectionCount = r.getU64();
    auto count = r.getU32();
    if (!serialNo || !rejectionCount || !count)
        return;
    serial = serialNo.value();
    rejections = rejectionCount.value();
    for (std::uint32_t i = 0; i < count.value(); ++i) {
        auto from = r.getString();
        auto label = r.getString();
        auto encoded = r.getBytes();
        if (!from || !label || !encoded)
            return;
        const CertKey key{from.value(), label.value()};
        if (issuedCache.emplace(key, encoded.take()).second) {
            issuedOrder.push_back(key);
            while (issuedOrder.size() > issuedCacheCapacity) {
                issuedCache.erase(issuedOrder.front());
                issuedOrder.pop_front();
            }
        }
    }
}

void
PrivacyCa::applyJournalRecord(const sim::JournalRecord &rec)
{
    const bool tagged = (rec.type & proto::kTaggedJournalBit) != 0;
    if (static_cast<JournalType>(rec.type & ~proto::kTaggedJournalBit) !=
        JournalType::CertIssued)
        return;
    std::uint64_t serialNo = 0;
    std::uint64_t rejectionCount = 0;
    std::string fromId;
    std::string label;
    Bytes encoded;
    if (tagged) {
        wire::WireReader tr(rec.payload);
        while (!tr.atEnd()) {
            auto f = tr.next();
            if (!f)
                return;
            const wire::WireField &fld = f.value();
            switch (fld.number) {
              case 1:
                if (fld.type == wire::WireType::Varint)
                    serialNo = fld.varint;
                break;
              case 2:
                if (fld.type == wire::WireType::Varint)
                    rejectionCount = fld.varint;
                break;
              case 3:
                if (fld.type == wire::WireType::Len)
                    fromId = fld.asString();
                break;
              case 4:
                if (fld.type == wire::WireType::Len)
                    label = fld.asString();
                break;
              case 5:
                if (fld.type == wire::WireType::Len)
                    encoded = fld.bytes;
                break;
              default:
                break; // Unknown field: skip.
            }
        }
    } else {
        ByteReader r(rec.payload);
        auto s = r.getU64();
        auto rej = r.getU64();
        auto from = r.getString();
        auto lab = r.getString();
        auto enc = r.getBytes();
        if (!s || !rej || !from || !lab || !enc)
            return;
        serialNo = s.value();
        rejectionCount = rej.value();
        fromId = from.take();
        label = lab.take();
        encoded = enc.take();
    }
    serial = serialNo;
    rejections = rejectionCount;
    const CertKey key{std::move(fromId), std::move(label)};
    if (issuedCache.emplace(key, std::move(encoded)).second) {
        issuedOrder.push_back(key);
        while (issuedOrder.size() > issuedCacheCapacity) {
            issuedCache.erase(issuedOrder.front());
            issuedOrder.pop_front();
        }
    }
}

void
PrivacyCa::recover()
{
    replaying = true;
    auto image = store.replay();
    if (!image.clean) {
        // Healed replay: issuances in the dropped suffix are gone
        // from the dedup cache, so their retransmissions mint fresh
        // certificates instead of being answered from cache.
        ++corruptRecoveries_;
        MONATT_LOG(Info, "pca")
            << self << ": replay quarantined "
            << image.quarantinedRecords << " and truncated "
            << image.truncatedRecords << " corrupt journal records"
            << (image.snapshotQuarantined ? " (snapshot seal failed)"
                                          : "");
    }
    if (image.hasSnapshot)
        applySnapshot(image.snapshot);
    for (const sim::JournalRecord &rec : image.records)
        applyJournalRecord(rec);
    replaying = false;
    // Recovery doubles as a checkpoint.
    store.checkpoint(snapshotState());
    ckptPolicy.noteCheckpoint();
    MONATT_LOG(Info, "pca")
        << self << ": recovered serial " << serial << ", "
        << issuedCache.size() << " cached responses";
}

void
PrivacyCa::crash()
{
    if (!endpoint.attached())
        return;
    MONATT_LOG(Info, "pca") << self << ": crash";
    ++era;
    endpoint.detach();
    inFlight.clear();
    issuedCache.clear();
    issuedOrder.clear();
    serial = 0;
    rejections = 0;
    // The un-fsynced journal tail is the page cache: lost.
    store.crash();
}

void
PrivacyCa::restart()
{
    if (endpoint.attached())
        return;
    MONATT_LOG(Info, "pca") << self << ": restart";
    endpoint.attach();
    if (durable)
        recover();
}

} // namespace monatt::attestation
