/**
 * @file
 * The controller's journal records: every StableStore record type and
 * the declared payload it carries (field tables per
 * proto/wire_schema.h; numbers frozen by the journal golden vectors).
 *
 * A checkpoint snapshot is a proto::Snapshot of these same records, so
 * the journal and the snapshot rebuild state through one decoder and
 * one apply path (CloudController::applyJournalRecord).
 */

#ifndef MONATT_CONTROLLER_JOURNAL_H
#define MONATT_CONTROLLER_JOURNAL_H

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/time_types.h"
#include "controller/database.h"
#include "proto/messages.h"
#include "sim/event_queue.h"
#include "sim/exchange.h"

namespace monatt::controller
{

/** Journal record types (StableStore payload tags). */
enum class JournalType : std::uint16_t
{
    Meta = 1,         //!< MetaRecord: vm / attest id counters.
    VmUpsert = 2,     //!< VmRecord.
    VmRemove = 3,     //!< VidRecord.
    ServerUpsert = 4, //!< ServerRecord (allocation changes).
    PolicySet = 5,    //!< PolicyRecord.
    LaunchUpsert = 6, //!< PendingLaunch.
    LaunchRemove = 7, //!< VidRecord.
    AttestUpsert = 8, //!< AttestRecord.
    AttestRemove = 9, //!< AttestIdRecord.
    ResponseUpsert = 10, //!< ResponseLogRecord (log entry by index).
    AsHealthSet = 11,    //!< AsHealthRecord.
    RelayRemember = 12,  //!< RelayRecord (FIFO order on replay).
};

/** Remediation response policies (§5.2). */
enum class ResponsePolicy : std::uint8_t
{
    None = 0,       //!< Report only.
    Terminate = 1,  //!< #1: shut the VM down.
    Suspend = 2,    //!< #2: pause pending further checking.
    Migrate = 3,    //!< #3: move to another qualified server.
};

/** Human-readable policy name. */
std::string responsePolicyName(ResponsePolicy p);

/** One executed (or executing) remediation response. */
struct ResponseRecord
{
    std::string vid;
    ResponsePolicy action = ResponsePolicy::None;
    SimTime attestStart = 0;   //!< Attestation request forwarded.
    SimTime reportAt = 0;      //!< Negative report received.
    SimTime completedAt = 0;   //!< Response acknowledged.
    bool completed = false;
    bool succeeded = false;
    std::string detail;
    std::string targetServer; //!< Migration target (when applicable).
    std::vector<proto::SecurityProperty> triggerProperties;
    bool resumedAfterRecheck = false; //!< Suspension lifted (§5.2 #2).

    static constexpr auto fields()
    {
        using M = ResponseRecord;
        using proto::field;
        return std::tuple{
            field(&M::vid, 1, "vid"),
            field(&M::action, 2, "action"),
            field(&M::attestStart, 3, "attestStart"),
            field(&M::reportAt, 4, "reportAt"),
            field(&M::completedAt, 5, "completedAt"),
            field(&M::completed, 6, "completed"),
            field(&M::succeeded, 7, "succeeded"),
            field(&M::detail, 8, "detail"),
            field(&M::targetServer, 9, "targetServer"),
            field(&M::triggerProperties, 10, "triggerProperties")
                .atMost(proto::kMaxProperties),
            field(&M::resumedAfterRecheck, 11, "resumedAfterRecheck"),
        };
    }
};

/** Why an attestation was initiated. */
enum class AttestKind
{
    StartupLaunch,
    CustomerRequest,
    SuspendRecheck,
};

/** One outstanding attestation. */
struct AttestContext
{
    AttestKind kind = AttestKind::CustomerRequest;
    std::string vid;
    std::string customer;
    std::uint64_t customerRequestId = 0;
    Bytes nonce1;
    Bytes nonce2;
    std::vector<proto::SecurityProperty> properties;
    proto::AttestMode mode = proto::AttestMode::RuntimeOneTime;
    SimTime period = 0;
    SimTime forwardedAt = 0;
    bool periodic = false;
    std::string serverId;   //!< Server the forward targeted.
    std::string attestorId; //!< AS currently responsible.
    int retries = 0;        //!< Journaled copy of forward.attempts().
    int failovers = 0;
    bool acked = false;     //!< A verified report arrived.
    bool recovered = false; //!< Re-armed after a crash (skip RTT
                            //!< sampling: the send time spans the
                            //!< outage).
    sim::Exchange forward;  //!< The AttestForward's (not journaled).

    static constexpr auto fields()
    {
        using M = AttestContext;
        using proto::field;
        return std::tuple{
            field(&M::kind, 1, "kind"),
            field(&M::vid, 2, "vid"),
            field(&M::customer, 3, "customer"),
            field(&M::customerRequestId, 4, "customerRequestId"),
            field(&M::nonce1, 5, "nonce1"),
            field(&M::nonce2, 6, "nonce2"),
            field(&M::properties, 7, "properties")
                .atMost(proto::kMaxProperties),
            field(&M::mode, 8, "mode"),
            field(&M::period, 9, "period"),
            field(&M::forwardedAt, 10, "forwardedAt"),
            field(&M::periodic, 11, "periodic"),
            field(&M::serverId, 12, "serverId"),
            field(&M::attestorId, 13, "attestorId"),
            field(&M::retries, 14, "retries"),
            field(&M::failovers, 15, "failovers"),
            field(&M::acked, 16, "acked"),
            field(&M::recovered, 17, "recovered"),
        };
    }
};

/** A launch still being driven, keyed by its vid. */
struct PendingLaunch
{
    std::string vid;
    std::uint64_t customerRequestId = 0;
    std::string customer;
    std::set<std::string> excludedServers;

    static constexpr auto fields()
    {
        using M = PendingLaunch;
        using proto::field;
        return std::tuple{
            field(&M::vid, 1, "vid"),
            field(&M::customerRequestId, 2, "customerRequestId"),
            field(&M::customer, 3, "customer"),
            field(&M::excludedServers, 4, "excludedServers").atMost(4096),
        };
    }
};

/** Meta: the id counters. */
struct MetaRecord
{
    std::uint64_t nextVmNumber = 0;
    std::uint64_t nextAttestId = 0;

    static constexpr auto fields()
    {
        using M = MetaRecord;
        using proto::field;
        return std::tuple{
            field(&M::nextVmNumber, 1, "nextVmNumber").always(),
            field(&M::nextAttestId, 2, "nextAttestId").always(),
        };
    }
};

/** VmRemove / LaunchRemove: the vid whose entry is gone. */
struct VidRecord
{
    std::string vid;

    static constexpr auto fields()
    {
        return std::tuple{proto::field(&VidRecord::vid, 1, "vid").always()};
    }
};

/** PolicySet: a VM's remediation policy. */
struct PolicyRecord
{
    std::string vid;
    ResponsePolicy policy = ResponsePolicy::None;

    static constexpr auto fields()
    {
        using M = PolicyRecord;
        using proto::field;
        return std::tuple{
            field(&M::vid, 1, "vid").always(),
            field(&M::policy, 2, "policy").always(),
        };
    }
};

/** AttestUpsert: one outstanding attestation by attest id. */
struct AttestRecord
{
    std::uint64_t attestId = 0;
    AttestContext ctx;

    static constexpr auto fields()
    {
        using M = AttestRecord;
        using proto::field;
        return std::tuple{
            field(&M::attestId, 1, "attestId").always(),
            field(&M::ctx, 2, "ctx").always(),
        };
    }
};

/** AttestRemove: the attest id whose context is gone. */
struct AttestIdRecord
{
    std::uint64_t attestId = 0;

    static constexpr auto fields()
    {
        return std::tuple{
            proto::field(&AttestIdRecord::attestId, 1, "attestId").always()};
    }
};

/** ResponseUpsert: one response-log entry by index. */
struct ResponseLogRecord
{
    std::uint64_t index = 0;
    ResponseRecord record;

    static constexpr auto fields()
    {
        using M = ResponseLogRecord;
        using proto::field;
        return std::tuple{
            field(&M::index, 1, "index").always(),
            field(&M::record, 2, "record").always(),
        };
    }
};

/** AsHealthSet: one attestor's responsiveness. */
struct AsHealthRecord
{
    std::string attestorId;
    int strikes = 0;
    bool suspect = false;

    static constexpr auto fields()
    {
        using M = AsHealthRecord;
        using proto::field;
        return std::tuple{
            field(&M::attestorId, 1, "attestorId").always(),
            field(&M::strikes, 2, "strikes"),
            field(&M::suspect, 3, "suspect"),
        };
    }
};

/** RelayRemember: a cached packed customer reply. */
struct RelayRecord
{
    std::string customer;
    std::uint64_t requestId = 0;
    Bytes packed;

    static constexpr auto fields()
    {
        using M = RelayRecord;
        using proto::field;
        return std::tuple{
            field(&M::customer, 1, "customer").always(),
            field(&M::requestId, 2, "requestId").always(),
            field(&M::packed, 3, "packed").always(),
        };
    }
};

} // namespace monatt::controller

#endif // MONATT_CONTROLLER_JOURNAL_H
