#include "proto/wire_schema.h"

#include "proto/messages.h"

namespace monatt::proto
{

namespace
{

template <typename M>
MessageSchema
row(MessageKind kind, const char *name)
{
    return {static_cast<std::uint8_t>(kind), name, fieldSpecs<M>()};
}

std::vector<MessageSchema>
buildSchemas()
{
    using K = MessageKind;
    return {
        row<AttestRequest>(K::AttestRequest, "AttestRequest"),
        row<AttestForward>(K::AttestForward, "AttestForward"),
        row<MeasureRequest>(K::MeasureRequest, "MeasureRequest"),
        row<MeasureResponse>(K::MeasureResponse, "MeasureResponse"),
        row<ReportToController>(K::ReportToController, "ReportToController"),
        row<ReportToCustomer>(K::ReportToCustomer, "ReportToCustomer"),
        row<CertRequest>(K::CertRequest, "CertRequest"),
        row<CertResponse>(K::CertResponse, "CertResponse"),
        row<AttestFailure>(K::AttestFailure, "AttestFailure"),
        row<LaunchVm>(K::LaunchVm, "LaunchVm"),
        row<LaunchVmAck>(K::LaunchVmAck, "LaunchVmAck"),
        row<VmCommand>(K::TerminateVm, "VmCommand"),
        row<VmCommandAck>(K::TerminateVmAck, "VmCommandAck"),
        row<MigrateOut>(K::MigrateOut, "MigrateOut"),
        row<MigrateIn>(K::MigrateIn, "MigrateIn"),
        row<LaunchRequest>(K::LaunchRequest, "LaunchRequest"),
        row<LaunchResponse>(K::LaunchResponse, "LaunchResponse"),
        row<ReplicateEntries>(K::ReplicateEntries, "ReplicateEntries"),
        row<ReplicateAck>(K::ReplicateAck, "ReplicateAck"),
        row<VoteRequest>(K::VoteRequest, "VoteRequest"),
        row<VoteGrant>(K::VoteGrant, "VoteGrant"),
        row<NotLeader>(K::NotLeader, "NotLeader"),
    };
}

std::uint8_t
kindByte(MessageKind k)
{
    return static_cast<std::uint8_t>(k);
}

} // namespace

const std::vector<MessageSchema> &
wireSchemas()
{
    static const std::vector<MessageSchema> schemas = buildSchemas();
    return schemas;
}

const MessageSchema *
schemaFor(std::uint8_t kind)
{
    // The per-VM commands and their acks share the VmCommand /
    // VmCommandAck schema under the Terminate* entries (migrate acks
    // are VmCommandAck too; MigrateIn/MigrateOut carry their own).
    if (kind >= kindByte(MessageKind::TerminateVm) &&
        kind <= kindByte(MessageKind::ResumeVmAck)) {
        kind = (kind % 2 == 0) ? kindByte(MessageKind::TerminateVm)
                               : kindByte(MessageKind::TerminateVmAck);
    } else if (kind == kindByte(MessageKind::MigrateInAck) ||
               kind == kindByte(MessageKind::MigrateOutAck)) {
        kind = kindByte(MessageKind::TerminateVmAck);
    }
    for (const MessageSchema &m : wireSchemas()) {
        if (m.kind == kind)
            return &m;
    }
    return nullptr;
}

} // namespace monatt::proto
