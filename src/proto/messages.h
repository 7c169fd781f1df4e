/**
 * @file
 * The CloudMonatt protocol messages (Figure 3) plus the cloud
 * management commands.
 *
 * Every message declares its wire fields once (a static fields()
 * table; see proto/wire_schema.h); the attestation messages
 * additionally define the exact quote inputs:
 *
 *   Q3 = H(Vid || rM || M  || N3)   signed by ASKs (cloud server)
 *   Q2 = H(Vid || I  || P || R || N2) signed by SKa (attestation server)
 *   Q1 = H(Vid || P  || R || N1)    signed by SKc (cloud controller)
 *
 * Messages travel as packMessage() frames inside SecureChannel
 * records; the signatures survive the hop-by-hop channel so a
 * customer verifies a chain rooted at the place of collection.
 */

#ifndef MONATT_PROTO_MESSAGES_H
#define MONATT_PROTO_MESSAGES_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/time_types.h"
#include "proto/measurement.h"
#include "proto/property.h"
#include "proto/wire_schema.h"

namespace monatt::proto
{

/** Message discriminator. */
enum class MessageKind : std::uint8_t
{
    AttestRequest = 1,
    AttestForward = 2,
    MeasureRequest = 3,
    MeasureResponse = 4,
    ReportToController = 5,
    ReportToCustomer = 6,
    CertRequest = 7,
    CertResponse = 8,
    AttestFailure = 9,
    LaunchVm = 20,
    LaunchVmAck = 21,
    TerminateVm = 22,
    TerminateVmAck = 23,
    SuspendVm = 24,
    SuspendVmAck = 25,
    ResumeVm = 26,
    ResumeVmAck = 27,
    MigrateIn = 28,
    MigrateInAck = 29,
    MigrateOut = 30,
    MigrateOutAck = 31,
    LaunchRequest = 40,
    LaunchResponse = 41,
    ReplicateEntries = 50,
    ReplicateAck = 51,
    VoteRequest = 52,
    VoteGrant = 53,
    NotLeader = 54,
};

/** Frame an encoded body: 0xC1 || kind u8 || varint length || body. */
Bytes packMessage(MessageKind kind, const Bytes &body);

/** A received frame split into its parts. */
struct UnpackedMessage
{
    MessageKind kind{};
    /** Always Tagged; kept only because perfbench's codec replay
     * passes it to decodeAs(). */
    WireFormat format = WireFormat::Tagged;
    Bytes body;
};

/** Split a frame; error unless it is exactly marker, kind, length and
 * a body of that length. */
Result<UnpackedMessage> unpackMessage(const Bytes &framed);

/** Encode + frame a message. */
template <typename M>
Bytes
pack(MessageKind kind, const M &msg)
{
    return packMessage(kind, encode(msg));
}

/** pack() under the signature perfbench's codec replay calls. */
template <typename M>
Bytes
packFor(const WireContext &, MessageKind kind, const M &msg)
{
    return pack(kind, msg);
}

/** decode<M>(body) under the signature perfbench's codec replay
 * calls; there is only one format. */
template <typename M>
Result<M>
decodeAs(WireFormat, const Bytes &body)
{
    return decode<M>(body);
}

/** Attestation modes (Table 1). */
enum class AttestMode : std::uint8_t
{
    StartupOneTime = 0,  //!< startup_attest_current
    RuntimeOneTime = 1,  //!< runtime_attest_current
    RuntimePeriodic = 2, //!< runtime_attest_periodic
    StopPeriodic = 3,    //!< stop_attest_periodic
};

/** Customer → Cloud Controller (the (Vid, P, N1) of Figure 3). */
struct AttestRequest
{
    std::uint64_t requestId = 0;
    std::string vid;
    std::vector<SecurityProperty> properties;
    Bytes nonce1;
    AttestMode mode = AttestMode::RuntimeOneTime;
    SimTime period = 0; //!< For periodic mode.

    static constexpr auto fields()
    {
        using M = AttestRequest;
        return std::tuple{
            field(&M::requestId, 1, "requestId"),
            field(&M::vid, 2, "vid"),
            field(&M::properties, 3, "properties").atMost(kMaxProperties),
            field(&M::nonce1, 4, "nonce1"),
            field(&M::mode, 5, "mode"),
            field(&M::period, 6, "period"),
        };
    }

    /** Never reuse: 15 carried the sender's build number. */
    static constexpr std::uint32_t kRetiredFields[] = {15};
};

/** Cloud Controller → Attestation Server ((Vid, I, P, N2)). */
struct AttestForward
{
    std::uint64_t requestId = 0;
    std::string vid;
    std::string serverId; //!< I: the server hosting Vid.
    std::vector<SecurityProperty> properties;
    Bytes nonce2;
    AttestMode mode = AttestMode::RuntimeOneTime;
    SimTime period = 0;

    static constexpr auto fields()
    {
        using M = AttestForward;
        return std::tuple{
            field(&M::requestId, 1, "requestId"),
            field(&M::vid, 2, "vid"),
            field(&M::serverId, 3, "serverId"),
            field(&M::properties, 4, "properties").atMost(kMaxProperties),
            field(&M::nonce2, 5, "nonce2"),
            field(&M::mode, 6, "mode"),
            field(&M::period, 7, "period"),
        };
    }

    /** Never reuse: 15 carried the sender's build number. */
    static constexpr std::uint32_t kRetiredFields[] = {15};
};

/** Attestation Server → Cloud Server ((Vid, rM, N3)). */
struct MeasureRequest
{
    std::uint64_t requestId = 0;
    std::string vid;
    MeasurementRequestList rm;
    Bytes nonce3;
    SimTime window = 0; //!< Collection window for runtime measurements.

    static constexpr auto fields()
    {
        using M = MeasureRequest;
        return std::tuple{
            field(&M::requestId, 1, "requestId"),
            field(&M::vid, 2, "vid"),
            field(&M::rm, 3, "rm").atMost(kMaxRequestList),
            field(&M::nonce3, 4, "nonce3"),
            field(&M::window, 5, "window"),
        };
    }

    /** Never reuse: 15 carried the sender's build number. */
    static constexpr std::uint32_t kRetiredFields[] = {15};
};

/** Cloud Server → Attestation Server ([Vid, rM, M, N3, Q3]_ASKs). */
struct MeasureResponse
{
    std::uint64_t requestId = 0;
    std::string vid;
    MeasurementRequestList rm;
    MeasurementSet m;
    Bytes nonce3;
    Bytes quote3;
    Bytes signature;   //!< By the session attestation key ASKs.
    Bytes certificate; //!< pCA certificate for AVKs.

    /** Q3 = H(Vid || rM || M || N3). */
    static Bytes quoteInput(const std::string &vid,
                            const MeasurementRequestList &rm,
                            const MeasurementSet &m, const Bytes &nonce3);

    /** The bytes the ASKs signature covers. */
    Bytes signedPortion() const;

    static constexpr auto fields()
    {
        using M = MeasureResponse;
        return std::tuple{
            field(&M::requestId, 1, "requestId"),
            field(&M::vid, 2, "vid"),
            field(&M::rm, 3, "rm").atMost(kMaxRequestList),
            field(&M::m, 4, "m"),
            field(&M::nonce3, 5, "nonce3"),
            field(&M::quote3, 6, "quote3"),
            field(&M::signature, 7, "signature"),
            field(&M::certificate, 8, "certificate"),
        };
    }

    /** Never reuse: 9 carried an unsigned copy of the TCB version, 15
     * the sender's build number. */
    static constexpr std::uint32_t kRetiredFields[] = {9, 15};
};

/** One property's appraisal in a report. */
struct PropertyResult
{
    SecurityProperty property{};
    HealthStatus status = HealthStatus::Unknown;
    std::string detail;

    bool operator==(const PropertyResult &o) const = default;

    /** Property and status always travel: Unknown and absent must
     * stay distinguishable in a health verdict. */
    static constexpr auto fields()
    {
        using M = PropertyResult;
        return std::tuple{
            field(&M::property, 1, "property").always(),
            field(&M::status, 2, "status").always(),
            field(&M::detail, 3, "detail"),
        };
    }
};

/** The attestation report R. */
struct AttestationReport
{
    std::string vid;
    std::vector<PropertyResult> results;
    SimTime issuedAt = 0;

    /** True when every appraised property is Healthy. */
    bool allHealthy() const;

    /** Result for a property; nullptr when absent. */
    const PropertyResult *find(SecurityProperty p) const;

    /** The declared encoding (what Q1/Q2 hash). */
    Bytes encode() const;

    static constexpr auto fields()
    {
        using M = AttestationReport;
        return std::tuple{
            field(&M::vid, 1, "vid"),
            field(&M::results, 2, "results").atMost(kMaxProperties),
            field(&M::issuedAt, 3, "issuedAt"),
        };
    }

    bool operator==(const AttestationReport &o) const = default;
};

inline Bytes
AttestationReport::encode() const
{
    return proto::encode(*this);
}

/** Attestation Server → Cloud Controller ([Vid, I, P, R, N2, Q2]_SKa). */
struct ReportToController
{
    std::uint64_t requestId = 0;
    std::string vid;
    std::string serverId;
    std::vector<SecurityProperty> properties;
    AttestationReport report;
    Bytes nonce2;
    Bytes quote2;
    Bytes signature; //!< By the attestation server's identity key SKa.

    /** Q2 = H(Vid || I || P || R || N2). */
    static Bytes quoteInput(const std::string &vid,
                            const std::string &serverId,
                            const std::vector<SecurityProperty> &props,
                            const AttestationReport &report,
                            const Bytes &nonce2);

    Bytes signedPortion() const;

    static constexpr auto fields()
    {
        using M = ReportToController;
        return std::tuple{
            field(&M::requestId, 1, "requestId"),
            field(&M::vid, 2, "vid"),
            field(&M::serverId, 3, "serverId"),
            field(&M::properties, 4, "properties").atMost(kMaxProperties),
            field(&M::report, 5, "report").always(),
            field(&M::nonce2, 6, "nonce2"),
            field(&M::quote2, 7, "quote2"),
            field(&M::signature, 8, "signature"),
        };
    }

    /** Never reuse: 9 carried an unsigned copy of the TCB version, 15
     * the sender's build number. */
    static constexpr std::uint32_t kRetiredFields[] = {9, 15};
};

/** Cloud Controller → Customer ([Vid, P, R, N1, Q1]_SKc). */
struct ReportToCustomer
{
    std::uint64_t requestId = 0;
    std::string vid;
    std::vector<SecurityProperty> properties;
    AttestationReport report;
    Bytes nonce1;
    Bytes quote1;
    Bytes signature; //!< By the controller's identity key SKc.

    /** Q1 = H(Vid || P || R || N1). */
    static Bytes quoteInput(const std::string &vid,
                            const std::vector<SecurityProperty> &props,
                            const AttestationReport &report,
                            const Bytes &nonce1);

    Bytes signedPortion() const;

    static constexpr auto fields()
    {
        using M = ReportToCustomer;
        return std::tuple{
            field(&M::requestId, 1, "requestId"),
            field(&M::vid, 2, "vid"),
            field(&M::properties, 3, "properties").atMost(kMaxProperties),
            field(&M::report, 4, "report").always(),
            field(&M::nonce1, 5, "nonce1"),
            field(&M::quote1, 6, "quote1"),
            field(&M::signature, 7, "signature"),
        };
    }

    /** Never reuse: 8 carried a last-of-a-periodic-stream flag, 9 an
     * unsigned copy of the TCB version, 15 the sender's build number. */
    static constexpr std::uint32_t kRetiredFields[] = {8, 9, 15};
};

/** Terminal non-verdicts for an attestation request. */
enum class FailureOutcome : std::uint8_t
{
    Unreachable = 1, //!< Retries/failover exhausted; no AS answered.
    Failed = 2,      //!< The request was rejected (see reason).
};

/**
 * Cloud Controller → Customer: the attestation cannot produce a
 * report. Travels over the controller's authenticated channel, so the
 * customer knows the verdict is the controller's and not forged —
 * there is no quote chain to verify because no measurement happened.
 */
struct AttestFailure
{
    std::uint64_t requestId = 0;
    std::string vid;
    FailureOutcome outcome = FailureOutcome::Failed;
    std::string reason;

    static constexpr auto fields()
    {
        using M = AttestFailure;
        return std::tuple{
            field(&M::requestId, 1, "requestId"),
            field(&M::vid, 2, "vid"),
            field(&M::outcome, 3, "outcome"),
            field(&M::reason, 4, "reason"),
        };
    }
};

/** Cloud Server → privacy CA: certify a fresh AVKs. */
struct CertRequest
{
    std::string serverId;
    std::string sessionLabel; //!< Anonymous subject for the cert.
    Bytes avk;                //!< Encoded session public key.
    Bytes avkSignature;       //!< [AVKs]_SKs.

    static constexpr auto fields()
    {
        using M = CertRequest;
        return std::tuple{
            field(&M::serverId, 1, "serverId"),
            field(&M::sessionLabel, 2, "sessionLabel"),
            field(&M::avk, 3, "avk"),
            field(&M::avkSignature, 4, "avkSignature"),
        };
    }
};

/** privacy CA → Cloud Server. */
struct CertResponse
{
    std::string sessionLabel;
    bool ok = false;
    std::string error;
    Bytes certificate;

    static constexpr auto fields()
    {
        using M = CertResponse;
        return std::tuple{
            field(&M::sessionLabel, 1, "sessionLabel"),
            field(&M::ok, 2, "ok"),
            field(&M::error, 3, "error"),
            field(&M::certificate, 4, "certificate"),
        };
    }
};

// --- Cloud management commands (Controller <-> Cloud Server) ---------

/** Launch a VM on a server. */
struct LaunchVm
{
    std::string vid;
    std::string name;
    std::uint32_t numVcpus = 1;
    std::uint64_t ramMb = 512;
    std::uint64_t diskGb = 1;
    std::uint64_t imageSizeMb = 0; //!< For transfer/boot timing.
    Bytes image;                   //!< Representative image content.
    int weight = 256;

    static constexpr auto fields()
    {
        using M = LaunchVm;
        return std::tuple{
            field(&M::vid, 1, "vid"),
            field(&M::name, 2, "name"),
            field(&M::numVcpus, 3, "numVcpus"),
            field(&M::ramMb, 4, "ramMb"),
            field(&M::diskGb, 5, "diskGb"),
            field(&M::imageSizeMb, 6, "imageSizeMb"),
            field(&M::image, 7, "image"),
            field(&M::weight, 8, "weight"),
        };
    }
};

/** Launch acknowledgement. */
struct LaunchVmAck
{
    std::string vid;
    bool ok = false;
    std::string error;
    Bytes imageDigest; //!< Measured by the IMU before launch.

    static constexpr auto fields()
    {
        using M = LaunchVmAck;
        return std::tuple{
            field(&M::vid, 1, "vid"),
            field(&M::ok, 2, "ok"),
            field(&M::error, 3, "error"),
            field(&M::imageDigest, 4, "imageDigest"),
        };
    }
};

/** Simple per-VM command (terminate/suspend/resume). */
struct VmCommand
{
    std::string vid;

    static constexpr auto fields()
    {
        using M = VmCommand;
        return std::tuple{
            field(&M::vid, 1, "vid"),
        };
    }
};

/** Simple per-VM acknowledgement. */
struct VmCommandAck
{
    std::string vid;
    bool ok = false;
    std::string error;

    static constexpr auto fields()
    {
        using M = VmCommandAck;
        return std::tuple{
            field(&M::vid, 1, "vid"),
            field(&M::ok, 2, "ok"),
            field(&M::error, 3, "error"),
        };
    }
};

/** Customer → Cloud Controller: lease a VM (nova api boot). */
struct LaunchRequest
{
    std::uint64_t requestId = 0;
    std::string name;
    std::string imageName;
    std::string flavorName;
    std::vector<SecurityProperty> properties; //!< Required monitoring.
    Bytes image; //!< Image content as supplied (may be customized).
    std::uint64_t imageSizeMb = 0;

    static constexpr auto fields()
    {
        using M = LaunchRequest;
        return std::tuple{
            field(&M::requestId, 1, "requestId"),
            field(&M::name, 2, "name"),
            field(&M::imageName, 3, "imageName"),
            field(&M::flavorName, 4, "flavorName"),
            field(&M::properties, 5, "properties").atMost(kMaxProperties),
            field(&M::image, 6, "image"),
            field(&M::imageSizeMb, 7, "imageSizeMb"),
        };
    }
};

/** Cloud Controller → Customer: launch outcome. */
struct LaunchResponse
{
    std::uint64_t requestId = 0;
    std::string vid;   //!< Assigned VM id (empty on failure).
    bool ok = false;
    std::string error;

    static constexpr auto fields()
    {
        using M = LaunchResponse;
        return std::tuple{
            field(&M::requestId, 1, "requestId"),
            field(&M::vid, 2, "vid"),
            field(&M::ok, 3, "ok"),
            field(&M::error, 4, "error"),
        };
    }
};

/** One replicated journal record as it travels on the wire. */
struct ReplicatedRecord
{
    std::uint64_t lsn = 0;
    std::uint16_t type = 0;
    Bytes payload;

    static constexpr auto fields()
    {
        using M = ReplicatedRecord;
        return std::tuple{
            field(&M::lsn, 1, "lsn"),
            field(&M::type, 2, "type"),
            field(&M::payload, 3, "payload"),
        };
    }
};

/**
 * A checkpoint image: the journal records that rebuild an entity's
 * state, which it applies in order through its journal-apply path
 * (lsn stays 0). Carried opaquely by StableStore and ReplicateEntries.
 */
struct Snapshot
{
    std::vector<ReplicatedRecord> records;

    /** Append one declared record of the entity's journal `type`. */
    template <typename Type, typename R>
    void add(Type type, const R &record)
    {
        records.push_back(
            {0, static_cast<std::uint16_t>(type), encode(record)});
    }

    static constexpr auto fields()
    {
        return std::tuple{field(&Snapshot::records, 1, "records")};
    }
};

/**
 * Shard leader → follower: journal suffix + commit cursor. An empty
 * record vector is the heartbeat; `hasSnapshot` folds a full state
 * snapshot in when the follower is too far behind to catch up from
 * the journal alone.
 */
struct ReplicateEntries
{
    std::uint64_t round = 0;     //!< Leader's election round.
    std::string leaderId;
    std::uint64_t prevLsn = 0;   //!< LSN immediately before records[0].
    std::vector<ReplicatedRecord> records;
    std::uint64_t commitLsn = 0; //!< Majority-durable cursor.
    bool hasSnapshot = false;
    Bytes snapshot;
    std::uint64_t snapshotLsn = 0;

    static constexpr auto fields()
    {
        using M = ReplicateEntries;
        return std::tuple{
            field(&M::round, 1, "round"),
            field(&M::leaderId, 2, "leaderId"),
            field(&M::prevLsn, 3, "prevLsn"),
            field(&M::records, 4, "records"),
            field(&M::commitLsn, 5, "commitLsn"),
            field(&M::hasSnapshot, 6, "hasSnapshot"),
            field(&M::snapshot, 7, "snapshot"),
            field(&M::snapshotLsn, 8, "snapshotLsn"),
        };
    }
};

/** Follower → leader: cumulative durable-LSN acknowledgement. */
struct ReplicateAck
{
    std::uint64_t round = 0;
    std::uint64_t lastLsn = 0; //!< Highest contiguously durable LSN.

    static constexpr auto fields()
    {
        using M = ReplicateAck;
        return std::tuple{
            field(&M::round, 1, "round"),
            field(&M::lastLsn, 2, "lastLsn"),
        };
    }
};

/** Candidate → group: request a vote for `round`. */
struct VoteRequest
{
    std::uint64_t round = 0;
    std::uint64_t lastLogRound = 0; //!< Round of the last mirrored entry.
    std::uint64_t lastLsn = 0;      //!< Candidate's last durable LSN.
    bool prevote = false;           //!< Probe only: no round is spent.

    static constexpr auto fields()
    {
        using M = VoteRequest;
        return std::tuple{
            field(&M::round, 1, "round"),
            field(&M::lastLogRound, 2, "lastLogRound"),
            field(&M::lastLsn, 3, "lastLsn"),
            field(&M::prevote, 4, "prevote"),
        };
    }
};

/** Voter → candidate: the (pre)vote for `round` is granted. */
struct VoteGrant
{
    std::uint64_t round = 0;
    bool prevote = false;

    static constexpr auto fields()
    {
        using M = VoteGrant;
        return std::tuple{
            field(&M::round, 1, "round"),
            field(&M::prevote, 2, "prevote"),
        };
    }
};

/**
 * Replica → customer: this node is not the group leader. Carries the
 * replica's current leader hint (may be empty mid-election) so the
 * customer can re-route the identified request.
 */
struct NotLeader
{
    std::uint64_t requestId = 0;
    bool isLaunch = false; //!< Launch vs attestation request id space.
    std::string leaderId;  //!< Best-known leader, empty if unknown.
    std::uint64_t round = 0;

    static constexpr auto fields()
    {
        using M = NotLeader;
        return std::tuple{
            field(&M::requestId, 1, "requestId"),
            field(&M::isLaunch, 2, "isLaunch"),
            field(&M::leaderId, 3, "leaderId"),
            field(&M::round, 4, "round"),
        };
    }
};

/** Cloud Controller → source server: migrate a VM away. */
struct MigrateOut
{
    std::string vid;
    std::string targetServer;

    static constexpr auto fields()
    {
        using M = MigrateOut;
        return std::tuple{
            field(&M::vid, 1, "vid"),
            field(&M::targetServer, 2, "targetServer"),
        };
    }
};

/** Source server → target server: VM state for migration. */
struct MigrateIn
{
    std::string vid;
    std::string name;
    std::uint32_t numVcpus = 1;
    std::uint64_t ramMb = 512;
    std::uint64_t diskGb = 1;
    std::uint64_t imageSizeMb = 0;
    Bytes image;
    int weight = 256;
    std::vector<std::string> guestTasks;  //!< Visible process state.
    std::vector<std::string> hiddenTasks; //!< Rootkit-hidden processes
                                          //!< (memory moves verbatim).
    std::vector<std::string> auditEntries; //!< Audit log contents.

    static constexpr auto fields()
    {
        using M = MigrateIn;
        return std::tuple{
            field(&M::vid, 1, "vid"),
            field(&M::name, 2, "name"),
            field(&M::numVcpus, 3, "numVcpus"),
            field(&M::ramMb, 4, "ramMb"),
            field(&M::diskGb, 5, "diskGb"),
            field(&M::imageSizeMb, 6, "imageSizeMb"),
            field(&M::image, 7, "image"),
            field(&M::weight, 8, "weight"),
            field(&M::guestTasks, 9, "guestTasks").atMost(100000),
            field(&M::hiddenTasks, 10, "hiddenTasks").atMost(100000),
            field(&M::auditEntries, 11, "auditEntries").atMost(1000000),
        };
    }
};

} // namespace monatt::proto

#endif // MONATT_PROTO_MESSAGES_H
