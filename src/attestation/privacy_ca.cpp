#include "attestation/privacy_ca.h"

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
    auto reqR = proto::decode<proto::CertRequest>(unpacked.value().body);
    if (!reqR)
        return;

    // Idempotent issuance: answer a retransmission with the cached
    // response; swallow duplicates of a request still being processed.
    const CertKey key{from, reqR.value().sessionLabel};
    const auto cached = issuedCache.find(key);
    if (cached != issuedCache.end()) {
        endpoint.sendSecure(from,
                            proto::packMessage(MessageKind::CertResponse,
                                               cached->second));
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

    // The dedup cache and journal hold the body as sent; a cache hit
    // is resent byte for byte.
    const CertKey key{from, req.sessionLabel};
    inFlight.erase(key);
    const Bytes body = proto::encode(resp, wire_);
    if (issuedCache.emplace(key, body).second) {
        if (durable && !replaying) {
            store.append(static_cast<std::uint16_t>(JournalType::CertIssued),
                         proto::encode(IssuedRecord{serial, rejections,
                                                    key.first, key.second,
                                                    body}));
        }
        issuedOrder.push_back(key);
        while (issuedOrder.size() > issuedCacheCapacity) {
            issuedCache.erase(issuedOrder.front());
            issuedOrder.pop_front();
        }
    }
    endpoint.sendSecure(from,
                        proto::packMessage(MessageKind::CertResponse, body));
    commitJournal();
}

// --- Durability: WAL + recovery ---------------------------------------

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
    // The counters lead on their own: a cache shrunk to nothing must
    // still never hand out a serial twice after recovery.
    const auto type = static_cast<std::uint16_t>(JournalType::CertIssued);
    IssuedRecord counters;
    counters.serial = serial;
    counters.rejections = rejections;
    proto::Snapshot snap;
    snap.add(type, counters);
    for (const CertKey &key : issuedOrder)
        snap.add(type, IssuedRecord{serial, rejections, key.first,
                                    key.second, issuedCache.at(key)});
    return proto::encode(snap);
}

void
PrivacyCa::applySnapshot(const Bytes &snapshot)
{
    auto image = proto::decode<proto::Snapshot>(snapshot);
    if (!image)
        return;
    for (proto::ReplicatedRecord &rec : image.value().records)
        applyJournalRecord({rec.lsn, rec.type, std::move(rec.payload)});
}

void
PrivacyCa::applyJournalRecord(const sim::JournalRecord &rec)
{
    if (static_cast<JournalType>(rec.type) != JournalType::CertIssued)
        return;
    auto r = proto::decode<IssuedRecord>(rec.payload);
    if (!r)
        return;
    IssuedRecord &issued = r.value();
    serial = issued.serial;
    rejections = issued.rejections;
    if (issued.requester.empty())
        return;
    const CertKey key{std::move(issued.requester), std::move(issued.label)};
    if (issuedCache.emplace(key, std::move(issued.encoded)).second) {
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
