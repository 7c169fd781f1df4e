/**
 * @file
 * The privacy Certificate Authority (§3.2.3, §3.4.2).
 *
 * "The public attestation key AVKs is signed by the Cloud Server's
 * SKs and sent to the pCA for certification. The pCA verifies the
 * signature via VKs and issues the certificate for AVKs for that
 * server. This certificate enables the Attestation Server to
 * authenticate the Cloud Server 'anonymously' for this attestation."
 *
 * The certificate subject is the session label, never the server id:
 * the pCA knows which machine asked (it verified VKs), but nothing
 * downstream of the certificate can link the attestation to the
 * machine — the property that stops an attacker from using the
 * attestation service to locate a victim VM for co-residence [31].
 */

#ifndef MONATT_ATTESTATION_PRIVACY_CA_H
#define MONATT_ATTESTATION_PRIVACY_CA_H

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/fifo_map.h"
#include "net/secure_endpoint.h"
#include "proto/durable_log.h"
#include "proto/messages.h"
#include "proto/timing_model.h"
#include "sim/event_queue.h"

namespace monatt::attestation
{

/**
 * Journal record: one cached issuance (or refusal) plus the serial and
 * rejection counters at that point, so replay restores them without a
 * record type of their own.
 */
struct IssuedRecord
{
    std::uint64_t serial = 0;
    std::uint64_t rejections = 0;
    std::string requester; //!< Empty: counters only (snapshots).
    std::string label;
    Bytes encoded; //!< The CertResponse body as sent.

    static constexpr auto fields()
    {
        using M = IssuedRecord;
        using proto::field;
        return std::tuple{
            field(&M::serial, 1, "serial"),
            field(&M::rejections, 2, "rejections"),
            field(&M::requester, 3, "requester").always(),
            field(&M::label, 4, "label").always(),
            field(&M::encoded, 5, "encoded").always(),
        };
    }
};

/** The pCA entity. */
class PrivacyCa
{
  public:
    PrivacyCa(sim::EventQueue &eq, net::Network &network,
              net::KeyDirectory &directory, std::string id,
              proto::TimingModel timing, std::uint64_t seed);

    /** Node id. */
    const std::string &id() const { return self; }

    /** Public signing key (verifiers fetch it from the directory). */
    const crypto::RsaPublicKey &publicKey() const { return keys.pub; }

    /** Certificates issued so far. */
    std::uint64_t issued() const { return serial; }

    /** Requests rejected (bad identity signature etc). */
    std::uint64_t rejected() const { return rejections; }

    /**
     * Simulate a crash: detach, drop volatile state and the un-fsynced
     * journal tail. The signing key survives (it is provisioned
     * material, like a key file on disk).
     */
    void crash();

    /** Rejoin the network and replay the journal. */
    void restart();

    /** True while attached to the network. */
    bool isUp() const { return endpoint.attached(); }

    /** Durable issuance state: journal issued certificates so a
     * restarted pCA answers retransmissions idempotently and never
     * reuses a serial number. On by default. */
    void setDurable(bool on) { log.setEnabled(on); }

    /** Issued-certificate dedup cache bound (FIFO eviction). */
    void setIssuedCacheCapacity(std::size_t capacity)
    {
        issuedCache = FifoMap<CertKey, Bytes>(capacity);
    }

    /** Journal-compaction triggers (count / size / age). */
    void setCheckpointPolicy(sim::CheckpointPolicyConfig config)
    {
        log.setPolicy(config);
    }

    /** Install the disk-failure model on the store (nullptr = clean
     * disk). Wired by core::Cloud when a fault plan is installed. */
    void setStorageFaults(const sim::StorageFaultModel *model)
    {
        log.store().setFaultModel(model);
    }

    /** Recoveries that had to heal a torn/rotted durable image. */
    std::uint64_t corruptRecoveries() const
    {
        return log.corruptRecoveries();
    }

    /** Dedup-cache introspection (bounds/eviction tests). */
    std::size_t issuedCacheSize() const { return issuedCache.size(); }

    /** Cached session labels in FIFO eviction order. */
    std::vector<std::string> issuedCacheLabels() const
    {
        std::vector<std::string> labels;
        for (const auto &[key, encoded] : issuedCache)
            labels.push_back(key.second);
        return labels;
    }

    /** The pCA's durable store (journal + checkpoints). */
    const sim::StableStore &stableStore() const { return log.store(); }

    /** Schema version this node emits (DESIGN.md §17). */
    const proto::WireContext &wireContext() const { return wire_; }
    void setWireContext(const proto::WireContext &ctx) { wire_ = ctx; }

  private:
    void handleMessage(const net::NodeId &from, const Bytes &plaintext);

    /** Check the requester's identity signature over AVKs, then
     * certify AVKs (or refuse), cache, journal and answer. */
    void issue(const proto::CertRequest &req, const net::NodeId &from);

    proto::WireContext wire_;

    sim::EventQueue &events;
    std::string self;
    crypto::RsaKeyPair keys;
    /** Compiled signing key for certificate issuance. */
    crypto::RsaPrivateContext signCtx;
    const net::KeyDirectory &dir;
    /** Compiled server identity keys for CertRequest verification. */
    crypto::RsaPublicContextCache serverKeys;
    proto::TimingModel timing;
    net::SecureEndpoint endpoint;
    std::uint64_t serial = 0;
    std::uint64_t rejections = 0;

    /**
     * Idempotent issuance: a retransmitted CertRequest is answered
     * with the already-issued response instead of minting a fresh
     * serial number. Keyed by (requester, session label); bounded
     * FIFO. `inFlight` suppresses duplicates that arrive while the
     * first copy is still inside the processing delay.
     */
    using CertKey = std::pair<net::NodeId, std::string>;
    FifoMap<CertKey, Bytes> issuedCache{128};
    std::set<CertKey> inFlight;

    // --- Durability (write-ahead journal) ------------------------------

    /** Journal record types (StableStore payload tags). */
    enum class JournalType : std::uint16_t
    {
        CertIssued = 1, //!< IssuedRecord.
    };

    /** Checkpoint snapshot: a counters record, then the cache. */
    proto::Snapshot snapshotState() const;
    void applyJournalRecord(const sim::JournalRecord &rec);

    /** Journal, checkpoints and the crash era that fences pending
     * issuances. */
    proto::DurableLog log;
};

} // namespace monatt::attestation

#endif // MONATT_ATTESTATION_PRIVACY_CA_H
