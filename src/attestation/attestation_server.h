/**
 * @file
 * The Attestation Server — requester and appraiser (§3.2.3).
 *
 * Hosts the Property Interpretation Module (validate measurements,
 * interpret properties, make attestation decisions) and the Property
 * Certification Module (issue the signed attestation report that the
 * Cloud Controller relays to the customer). Holds the oat-style
 * databases: per-server and per-VM reference data, plus an archive of
 * verified measurements.
 *
 * Verification of a MeasureResponse follows §3.4: check the pCA
 * certificate for the session attestation key AVKs, check the ASKs
 * signature over [Vid, rM, M, N3, Q3], recompute and compare the
 * quote Q3 = H(Vid || rM || M || N3), and check the nonce N3 against
 * the outstanding session (replay rejection). Only then are the
 * measurements interpreted. A response failing any check yields an
 * authentic report with status Unknown — the customer learns that
 * measurements could not be verified, and the attacker gains no way
 * to forge a positive report.
 *
 * Periodic attestation (§3.2.1) runs rounds on a fixed or random
 * interval until stopped.
 */

#ifndef MONATT_ATTESTATION_ATTESTATION_SERVER_H
#define MONATT_ATTESTATION_ATTESTATION_SERVER_H

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "attestation/interpreters.h"
#include "common/fifo_map.h"
#include "net/secure_endpoint.h"
#include "proto/durable_log.h"
#include "proto/messages.h"
#include "proto/timing_model.h"
#include "sim/event_queue.h"

namespace monatt::attestation
{

/** Configuration. */
struct AttestationServerConfig
{
    std::string id = "attestation-server";
    std::string controllerId = "cloud-controller";

    /**
     * Every controller shard allowed to forward attestations here.
     * Under a sharded control plane any shard may own VMs on any
     * cluster, so forwards arrive from all of them; each report is
     * answered to the shard that forwarded the request. Empty = just
     * controllerId (the classic single controller).
     */
    std::set<std::string> controllerIds;
    std::string pcaId = "privacy-ca";
    proto::TimingModel timing;
    proto::ReliabilityModel reliability;
    std::size_t identityKeyBits = 512;

    /** Bounds for randomized periodic attestation intervals. */
    SimTime randomPeriodMin = seconds(5);
    SimTime randomPeriodMax = seconds(60);

    /** Receive-side AttestForward dedup cache bound (FIFO eviction). */
    std::size_t reportCacheCapacity = 128;

    /**
     * Minimum-TCB policy (interpreters.h). When armed the AS requests
     * the TcbVersion measurement with every rM and renders
     * TcbRollback for evidence from below-floor (or version-less)
     * firmware, and for stale-quote replays caught by the N3
     * freshness check. Disarmed by default: legacy golden traces are
     * byte-identical with the policy off.
     */
    TcbPolicy tcbPolicy;

    /**
     * Durable appraiser state: journal dedup-cache and verified-chain
     * insertions to a write-ahead StableStore so a restarted AS keeps
     * answering retransmitted forwards idempotently instead of
     * double-signing reports it already issued.
     */
    bool durable = true;

    /** Journal-compaction triggers (count / size / age); all 0 =
     * never checkpoint. */
    sim::CheckpointPolicyConfig checkpointPolicy;
};

/** Journal record: a cached signed report body (dedup cache). */
struct ReportRecord
{
    std::uint64_t requestId = 0;
    Bytes encoded; //!< The ReportToController body as sent.

    static constexpr auto fields()
    {
        using M = ReportRecord;
        using proto::field;
        return std::tuple{
            field(&M::requestId, 1, "requestId").always(),
            field(&M::encoded, 2, "encoded").always(),
        };
    }
};

/** Journal record: a verified certificate chain. */
struct CertRecord
{
    Bytes digest; //!< Certificate digest (the cache key).
    Bytes avk;    //!< The certified AVK, RsaPublicKey::encode().

    static constexpr auto fields()
    {
        using M = CertRecord;
        using proto::field;
        return std::tuple{
            field(&M::digest, 1, "digest").always(),
            field(&M::avk, 2, "avk").always(),
        };
    }
};

/** Observable counters. */
struct AttestationServerStats
{
    std::uint64_t measurementRequestsSent = 0;
    std::uint64_t responsesVerified = 0;
    std::uint64_t verificationFailures = 0;
    std::uint64_t reportsIssued = 0;
    std::uint64_t periodicRoundsRun = 0;
    std::uint64_t certCacheHits = 0;
    std::uint64_t certCacheMisses = 0;
    std::uint64_t measureRetries = 0;  //!< MeasureRequest resends.
    std::uint64_t measureTimeouts = 0; //!< Sessions given up on.
    std::uint64_t duplicateForwards = 0; //!< Dedup'd AttestForwards.
    std::uint64_t recoveries = 0;      //!< Journal replays completed.
    std::uint64_t corruptRecoveries = 0; //!< Replays that healed a
                                         //!< torn/rotted durable image.
    std::uint64_t tcbRollbackVerdicts = 0; //!< Properties failed by the
                                           //!< minimum-TCB policy.
    std::uint64_t staleReplaysDetected = 0; //!< N3-freshness failures
                                            //!< classified as replays.
};

/** The Attestation Server entity. */
class AttestationServer
{
  public:
    AttestationServer(sim::EventQueue &eq, net::Network &network,
                      net::KeyDirectory &directory,
                      AttestationServerConfig config, std::uint64_t seed);

    const std::string &id() const { return cfg.id; }

    /** Identity public key SKa's verification half (VKa). */
    const crypto::RsaPublicKey &identityPublic() const
    {
        return keys.pub;
    }

    // --- oat database provisioning (trusted admin path) ---------------

    /** Record a server's known-good platform configuration. */
    void setServerReference(const std::string &serverId,
                            ServerReference ref);

    /** Register a pristine catalog image digest (IMA appraiser DB). */
    void addKnownGoodImage(const Bytes &digest);

    /** The interpreter registry (extensible, §4.1). */
    InterpreterRegistry &interpreters() { return registry; }

    /** Last verified measurements for a VM (nullptr when none). */
    const proto::MeasurementSet *lastMeasurements(
        const std::string &vid) const;

    /** Number of active periodic attestation tasks. */
    std::size_t activePeriodicTasks() const;

    AttestationServerStats stats() const
    {
        AttestationServerStats s = counters;
        s.recoveries = log.recoveries();
        s.corruptRecoveries = log.corruptRecoveries();
        return s;
    }

    /**
     * Successful pCA certificate-chain checks, memoized by certificate
     * digest: a reused AVK session is chain-checked once instead of
     * once per MeasureResponse. A hit is the same decision as cold
     * verification; failures are never cached, and a tampered
     * certificate changes the digest and takes the cold path.
     */
    const FifoMap<Bytes, crypto::RsaPublicContext> &certificateCache() const
    {
        return certCache;
    }

    /**
     * Simulate a crash: detach from the network and drop all volatile
     * state (sessions, periodic tasks, archives, caches). Reference
     * databases survive — they are the oat databases on disk,
     * re-provisioned by the trusted admin path anyway.
     */
    void crash();

    /** Rejoin the network after a crash (replays the journal). */
    void restart();

    /** True while attached to the network. */
    bool isUp() const { return endpoint.attached(); }

    /** The appraiser's durable store (journal + checkpoints). */
    const sim::StableStore &stableStore() const { return log.store(); }

    /** Install the disk-failure model on the store (nullptr = clean
     * disk). Wired by core::Cloud when a fault plan is installed. */
    void setStorageFaults(const sim::StorageFaultModel *model)
    {
        log.store().setFaultModel(model);
    }

    /** Dedup-cache introspection (bounds/eviction tests). */
    std::size_t reportCacheSize() const { return reportCache.size(); }

    /** Cached report request ids in FIFO eviction order. */
    std::vector<std::uint64_t> reportCacheRequestIds() const
    {
        std::vector<std::uint64_t> ids;
        for (const auto &[requestId, encoded] : reportCache)
            ids.push_back(requestId);
        return ids;
    }

  private:
    struct Session
    {
        proto::AttestForward forward;
        net::NodeId controller;      //!< Shard the report goes back to.
        Bytes nonce3;
        Bytes requestBytes;     //!< For identical retransmission.
        sim::Exchange exchange; //!< The MeasureRequest's.
    };

    struct PeriodicTask
    {
        proto::AttestForward forward;
        net::NodeId controller; //!< Shard that owns the stream.
        bool active = true;
    };

    void handleMessage(const net::NodeId &from, const Bytes &plaintext);

    /** True when `node` is a controller shard we serve. */
    bool isKnownController(const net::NodeId &node) const;
    void onAttestForward(const net::NodeId &from, const Bytes &body);
    void processForward(const net::NodeId &from,
                        const proto::AttestForward &fwd);

    /** Arm the MeasureRequest retransmission timer for a session. */
    void scheduleMeasureRetry(std::uint64_t sessionId);

    /** Remember a signed report for idempotent retransmission. */
    void rememberReport(std::uint64_t requestId, Bytes encoded);
    void onMeasureResponse(const Bytes &body);
    void startMeasurement(const proto::AttestForward &forward,
                          const net::NodeId &controller);
    void runPeriodicRound(const std::string &key);
    /** Sign the report and send it to the session's controller. */
    void issueReport(const Session &session,
                     proto::AttestationReport report);

    /** Steps 1-4 of response verification: certificate chain (through
     * the cache), session signature, quote and nonce binding. */
    Result<proto::MeasurementSet> verifyResponse(
        const Session &session, const proto::MeasureResponse &resp);
    void applyVerified(const Session &session,
                       Result<proto::MeasurementSet> verified);
    static Result<crypto::RsaPublicKey> checkCertificate(
        const Bytes &certBytes, const std::string &pcaId,
        const crypto::RsaPublicContext &pca);
    static Result<proto::MeasurementSet> verifyWithAvk(
        const Session &session, const proto::MeasureResponse &resp,
        const crypto::RsaPublicContext &avk);
    static std::string periodicKey(const proto::AttestForward &fwd);

    /** Compiled pCA key, rebuilt if the directory rotates it. */
    const crypto::RsaPublicContext &pcaContext(
        const crypto::RsaPublicKey &key);

    sim::EventQueue &events;
    AttestationServerConfig cfg;
    crypto::RsaKeyPair keys;
    /** Compiled identity key for report signatures. */
    crypto::RsaPrivateContext signCtx;
    const net::KeyDirectory &dir;
    net::SecureEndpoint endpoint;
    InterpreterRegistry registry;
    Rng rng;
    static constexpr std::size_t kCertCacheCapacity = 256;
    /** Certified AVKs, compiled once: a hit verifies with no division. */
    FifoMap<Bytes, crypto::RsaPublicContext> certCache;
    std::optional<crypto::RsaPublicContext> pcaCtx;

    std::map<std::string, ServerReference> serverRefs;
    std::set<Bytes> knownGoodImages;
    std::map<std::uint64_t, Session> sessions;
    std::map<std::string, PeriodicTask> periodic;
    std::map<std::string, proto::MeasurementSet> measurementArchive;

    /**
     * Receive-side dedup for AttestForward: one-time requests in
     * flight (started, report not yet signed) are ignored on
     * retransmission; completed ones are answered by re-sending the
     * cached signed report — never by double-signing. Bounded FIFO.
     */
    std::set<std::uint64_t> forwardInFlight;
    FifoMap<std::uint64_t, Bytes> reportCache;

    // --- Durability (write-ahead journal) ------------------------------

    /** Journal record types (StableStore payload tags). */
    enum class JournalType : std::uint16_t
    {
        ReportRemember = 1, //!< ReportRecord.
        CertInsert = 2,     //!< CertRecord.
    };

    /** Checkpoint snapshot: the records that rebuild the caches. */
    proto::Snapshot snapshotState() const;
    void applyJournalRecord(const sim::JournalRecord &rec);

    /** Journal, checkpoints and the crash era every deferred callback
     * checks, so a crashed AS never signs, sends or syncs again. */
    proto::DurableLog log;

    /** Per-server RTT estimators feeding the adaptive measureRto. */
    std::map<std::string, sim::RttEstimator> serverRtt;

    std::uint64_t nextSession = 1;
    AttestationServerStats counters;
};

} // namespace monatt::attestation

#endif // MONATT_ATTESTATION_ATTESTATION_SERVER_H
