#include "attestation/privacy_ca.h"

#include "common/logging.h"
#include "tpm/certificate.h"

namespace monatt::attestation
{

using proto::MessageKind;

PrivacyCa::PrivacyCa(sim::EventQueue &eq, net::Network &network,
                     net::KeyDirectory &directory, std::string id,
                     proto::TimingModel timingModel, std::uint64_t seed)
    : events(eq), self(std::move(id)),
      keys(crypto::deriveKeyPair("pca-identity", self, seed, 512)),
      signCtx(keys.priv), dir(directory), timing(timingModel),
      endpoint(network, self, keys, directory,
               crypto::seedMaterial("pca-endpoint", self, seed)),
      log(self, {}, [this] { return snapshotState(); },
          [this](const sim::JournalRecord &rec) { applyJournalRecord(rec); })
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
    if (const Bytes *cached = issuedCache.find(key)) {
        endpoint.sendSecure(from,
                            proto::packMessage(MessageKind::CertResponse,
                                               *cached));
        return;
    }
    if (!inFlight.insert(key).second)
        return;

    // Model the per-request processing delay, then issue.
    events.scheduleAfter(timing.pcaProcessing,
                         [this, req = reqR.take(), from,
                          eraNow = log.era()] {
        if (!log.stale(eraNow))
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
        identityOk =
            serverKey &&
            crypto::rsaVerify(serverKeys.get(req.serverId, serverKey.value()),
                              req.avk, req.avkSignature);
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
    const Bytes body = proto::encode(resp);
    if (issuedCache.insert(key, body))
        log.append(JournalType::CertIssued,
                   IssuedRecord{serial, rejections, key.first, key.second,
                                body});
    endpoint.sendSecure(from,
                        proto::packMessage(MessageKind::CertResponse, body));
    log.commit(events.now());
}

// --- Durability: WAL + recovery ---------------------------------------

proto::Snapshot
PrivacyCa::snapshotState() const
{
    // The counters lead on their own: a cache shrunk to nothing must
    // still never hand out a serial twice after recovery.
    const JournalType type = JournalType::CertIssued;
    IssuedRecord counters;
    counters.serial = serial;
    counters.rejections = rejections;
    proto::Snapshot snap;
    snap.add(type, counters);
    for (const auto &[key, encoded] : issuedCache)
        snap.add(type, IssuedRecord{serial, rejections, key.first,
                                    key.second, encoded});
    return snap;
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
    issuedCache.insert({std::move(issued.requester), std::move(issued.label)},
                       std::move(issued.encoded));
}

void
PrivacyCa::crash()
{
    if (!endpoint.attached())
        return;
    MONATT_LOG(Info, "pca") << self << ": crash";
    endpoint.detach();
    // Fences pending issuances; the un-fsynced journal tail is the
    // page cache: lost.
    log.crash();
    inFlight.clear();
    issuedCache.clear();
    serial = 0;
    rejections = 0;
}

void
PrivacyCa::restart()
{
    if (endpoint.attached())
        return;
    MONATT_LOG(Info, "pca") << self << ": restart";
    endpoint.attach();
    // A healed replay drops issuances from the dedup cache, so their
    // retransmissions mint fresh certificates instead.
    log.recover();
}

} // namespace monatt::attestation
