/**
 * @file
 * The shared sample table of the wire tests: one fully populated value
 * of every message type and every journal record type (every field
 * away from its default), plus a type-erased view of all of them for
 * the hostile-bytes sweep. The golden vectors in
 * wire_conformance_test.cpp are frozen encodings of these values.
 */

#ifndef MONATT_TESTS_PROTO_WIRE_SAMPLES_H
#define MONATT_TESTS_PROTO_WIRE_SAMPLES_H

#include <string>
#include <vector>

#include "attestation/attestation_server.h"
#include "attestation/privacy_ca.h"
#include "controller/journal.h"
#include "crypto/rsa.h"
#include "proto/messages.h"

namespace monatt::samples
{

using namespace monatt::proto;

inline AttestRequest
sampleAttestRequest()
{
    AttestRequest m;
    m.requestId = 7;
    m.vid = "vm-42";
    m.properties = {SecurityProperty::RuntimeIntegrity,
                    SecurityProperty::CpuAvailability};
    m.nonce1 = {0x01, 0x02, 0x03, 0x04};
    m.mode = AttestMode::RuntimePeriodic;
    m.period = seconds(10);
    m.senderBuild = 3;
    return m;
}

inline AttestForward
sampleAttestForward()
{
    AttestForward m;
    m.requestId = 9;
    m.vid = "vm-1";
    m.serverId = "server-2";
    m.properties = {SecurityProperty::StartupIntegrity};
    m.nonce2 = {0x09, 0x09};
    m.mode = AttestMode::StartupOneTime;
    m.period = seconds(1);
    m.senderBuild = 3;
    return m;
}

inline MeasureRequest
sampleMeasureRequest()
{
    MeasureRequest m;
    m.requestId = 11;
    m.vid = "vm-m";
    m.rm = {MeasurementType::PlatformPcrs, MeasurementType::CpuMeasure};
    m.nonce3 = {0x0a, 0x0b};
    m.window = seconds(2);
    m.senderBuild = 3;
    return m;
}

inline MeasureResponse
sampleMeasureResponse()
{
    MeasureResponse m;
    m.requestId = 12;
    m.vid = "vm-m";
    m.rm = {MeasurementType::VmImageDigest};
    Measurement meas;
    meas.type = MeasurementType::VmImageDigest;
    meas.digest = {0xde, 0xad};
    m.m.items.push_back(meas);
    m.nonce3 = {0x0c};
    m.quote3 = {0x0d};
    m.signature = {0x0e, 0x0f};
    m.certificate = {0x10};
    m.senderBuild = 3;
    return m;
}

inline AttestationReport
sampleReport()
{
    AttestationReport rep;
    rep.vid = "vm-r";
    PropertyResult pr;
    pr.property = SecurityProperty::RuntimeIntegrity;
    pr.status = HealthStatus::Healthy;
    pr.detail = "ok";
    rep.results.push_back(pr);
    rep.issuedAt = seconds(5);
    return rep;
}

inline ReportToController
sampleReportToController()
{
    ReportToController m;
    m.requestId = 13;
    m.vid = "vm-r";
    m.serverId = "server-1";
    m.properties = {SecurityProperty::RuntimeIntegrity};
    m.report = sampleReport();
    m.nonce2 = {0x11};
    m.quote2 = {0x12};
    m.signature = {0x13, 0x14};
    m.senderBuild = 3;
    return m;
}

inline ReportToCustomer
sampleReportToCustomer()
{
    ReportToCustomer m;
    m.requestId = 14;
    m.vid = "vm-r";
    m.properties = {SecurityProperty::RuntimeIntegrity};
    m.report = sampleReport();
    m.nonce1 = {0x15};
    m.quote1 = {0x16};
    m.signature = {0x17};
    m.finalPeriodic = true;
    m.senderBuild = 3;
    return m;
}

inline AttestFailure
sampleAttestFailure()
{
    AttestFailure m;
    m.requestId = 15;
    m.vid = "vm-f";
    m.outcome = FailureOutcome::Unreachable;
    m.reason = "no attestor";
    return m;
}

inline CertRequest
sampleCertRequest()
{
    CertRequest m;
    m.serverId = "server-3";
    m.sessionLabel = "sess-9";
    m.avk = {0x21, 0x22};
    m.avkSignature = {0x23};
    return m;
}

inline CertResponse
sampleCertResponse()
{
    CertResponse m;
    m.sessionLabel = "sess-9";
    m.ok = true;
    m.error = "e";
    m.certificate = {0x24, 0x25};
    return m;
}

inline LaunchVm
sampleLaunchVm()
{
    LaunchVm m;
    m.vid = "vm-l";
    m.name = "web";
    m.numVcpus = 2;
    m.ramMb = 1024;
    m.diskGb = 4;
    m.imageSizeMb = 100;
    m.image = {0x30, 0x31};
    m.weight = 512;
    return m;
}

inline LaunchVmAck
sampleLaunchVmAck()
{
    LaunchVmAck m;
    m.vid = "vm-l";
    m.ok = true;
    m.error = "x";
    m.imageDigest = {0x32};
    return m;
}

inline VmCommand
sampleVmCommand()
{
    VmCommand m;
    m.vid = "vm-c";
    return m;
}

inline VmCommandAck
sampleVmCommandAck()
{
    VmCommandAck m;
    m.vid = "vm-c";
    m.ok = true;
    m.error = "y";
    return m;
}

inline LaunchRequest
sampleLaunchRequest()
{
    LaunchRequest m;
    m.requestId = 16;
    m.name = "web";
    m.imageName = "ubuntu";
    m.flavorName = "m1.small";
    m.properties = {SecurityProperty::CovertChannelFreedom};
    m.image = {0x33};
    m.imageSizeMb = 50;
    return m;
}

inline LaunchResponse
sampleLaunchResponse()
{
    LaunchResponse m;
    m.requestId = 17;
    m.vid = "vm-n";
    m.ok = true;
    m.error = "z";
    return m;
}

inline ReplicateEntries
sampleReplicateEntries()
{
    ReplicateEntries m;
    m.round = 2;
    m.leaderId = "ctrl-a";
    m.prevLsn = 4;
    ReplicatedRecord rec;
    rec.lsn = 5;
    rec.type = 0x103; // any u16 record type
    rec.payload = {0x41, 0x42};
    m.records.push_back(rec);
    m.commitLsn = 5;
    m.hasSnapshot = true;
    m.snapshot = {0x43};
    m.snapshotLsn = 3;
    return m;
}

inline ReplicateAck
sampleReplicateAck()
{
    ReplicateAck m;
    m.round = 2;
    m.lastLsn = 5;
    return m;
}

inline VoteRequest
sampleVoteRequest()
{
    VoteRequest m;
    m.round = 3;
    m.lastLogRound = 2;
    m.lastLsn = 9;
    m.prevote = true;
    return m;
}

inline VoteGrant
sampleVoteGrant()
{
    VoteGrant m;
    m.round = 3;
    m.prevote = true;
    return m;
}

inline NotLeader
sampleNotLeader()
{
    NotLeader m;
    m.requestId = 18;
    m.isLaunch = true;
    m.leaderId = "ctrl-b";
    m.round = 3;
    return m;
}

inline MigrateOut
sampleMigrateOut()
{
    MigrateOut m;
    m.vid = "vm-g";
    m.targetServer = "server-4";
    return m;
}

inline MigrateIn
sampleMigrateIn()
{
    MigrateIn m;
    m.vid = "vm-g";
    m.name = "web";
    m.numVcpus = 2;
    m.ramMb = 768;
    m.diskGb = 2;
    m.imageSizeMb = 60;
    m.image = {0x50};
    m.weight = 128;
    m.guestTasks = {"init", "sshd"};
    m.hiddenTasks = {"rk"};
    m.auditEntries = {"a1"};
    return m;
}


// --- Journal records -------------------------------------------------

inline controller::VmRecord
sampleVmRecord()
{
    controller::VmRecord vm;
    vm.vid = "vm-7";
    vm.name = "web";
    vm.customer = "alice";
    vm.imageName = "ubuntu";
    vm.flavorName = "m1.small";
    vm.imageSizeMb = 40;
    vm.image = {0xaa, 0xbb};
    vm.vcpus = 2;
    vm.ramMb = 2048;
    vm.diskGb = 20;
    vm.properties = {SecurityProperty::RuntimeIntegrity,
                     SecurityProperty::CpuAvailability};
    vm.serverId = "server-1";
    vm.status = controller::VmStatus::Running;
    vm.launchTimer.record("scheduling", 10, 20);
    vm.launchTimer.record("spawning", 20, 50);
    vm.launchTimer.beginStage("attesting", 50);
    vm.launchAttempts = 2;
    vm.launchedAt = 60;
    return vm;
}

inline controller::ServerRecord
sampleServerRecord()
{
    controller::ServerRecord srv;
    srv.id = "server-9";
    srv.capabilities = {SecurityProperty::StartupIntegrity,
                        SecurityProperty::RuntimeIntegrity};
    srv.totalRamMb = 16384;
    srv.totalDiskGb = 500;
    srv.allocatedRamMb = 2048;
    srv.allocatedDiskGb = 20;
    srv.quarantined = true;
    return srv;
}

inline controller::PendingLaunch
samplePendingLaunch()
{
    controller::PendingLaunch launch;
    launch.vid = "vm-7";
    launch.customerRequestId = 5;
    launch.customer = "alice";
    launch.excludedServers = {"server-2", "server-3"};
    return launch;
}

inline controller::AttestContext
sampleAttestContext()
{
    controller::AttestContext ctx;
    ctx.kind = controller::AttestKind::SuspendRecheck;
    ctx.vid = "vm-7";
    ctx.customer = "alice";
    ctx.customerRequestId = 9;
    ctx.nonce1 = {0x01, 0x02};
    ctx.nonce2 = {0x03, 0x04};
    ctx.properties = {SecurityProperty::RuntimeIntegrity};
    ctx.mode = AttestMode::RuntimePeriodic;
    ctx.period = seconds(10);
    ctx.forwardedAt = 123;
    ctx.periodic = true;
    ctx.serverId = "server-1";
    ctx.attestorId = "attestation-server";
    ctx.retries = 2;
    ctx.failovers = 1;
    ctx.acked = true;
    ctx.recovered = true;
    return ctx;
}

inline controller::ResponseRecord
sampleResponseRecord()
{
    controller::ResponseRecord rec;
    rec.vid = "vm-7";
    rec.action = controller::ResponsePolicy::Suspend;
    rec.attestStart = 100;
    rec.reportAt = 200;
    rec.completedAt = 300;
    rec.completed = true;
    rec.succeeded = true;
    rec.detail = "rootkit";
    rec.targetServer = "server-2";
    rec.triggerProperties = {SecurityProperty::RuntimeIntegrity};
    rec.resumedAfterRecheck = true;
    return rec;
}

/** A small (undecodable as a key, but encodable) RSA public key. */
inline Bytes
sampleAvkBytes()
{
    return crypto::RsaPublicKey{crypto::BigUint::fromU64(3233),
                                crypto::BigUint::fromU64(17)}
        .encode();
}

// --- The type-erased table -------------------------------------------

/** One sample value, encoded at the latest version, with its decoder. */
struct Sample
{
    std::string name;
    Bytes body;
    Status (*decode)(const Bytes &body);
};

template <typename T>
Sample
sample(std::string name, const T &value)
{
    return {std::move(name), encode(value), [](const Bytes &body) {
                T decoded{};
                return decodeInto(decoded, body);
            }};
}

/** Every message type and every journal record type. */
inline std::vector<Sample>
allSamples()
{
    using namespace controller;
    using attestation::CertRecord;
    using attestation::IssuedRecord;
    using attestation::ReportRecord;
    return {
        sample("AttestRequest", sampleAttestRequest()),
        sample("AttestForward", sampleAttestForward()),
        sample("MeasureRequest", sampleMeasureRequest()),
        sample("MeasureResponse", sampleMeasureResponse()),
        sample("ReportToController", sampleReportToController()),
        sample("ReportToCustomer", sampleReportToCustomer()),
        sample("AttestFailure", sampleAttestFailure()),
        sample("CertRequest", sampleCertRequest()),
        sample("CertResponse", sampleCertResponse()),
        sample("LaunchVm", sampleLaunchVm()),
        sample("LaunchVmAck", sampleLaunchVmAck()),
        sample("VmCommand", sampleVmCommand()),
        sample("VmCommandAck", sampleVmCommandAck()),
        sample("LaunchRequest", sampleLaunchRequest()),
        sample("LaunchResponse", sampleLaunchResponse()),
        sample("ReplicateEntries", sampleReplicateEntries()),
        sample("ReplicateAck", sampleReplicateAck()),
        sample("VoteRequest", sampleVoteRequest()),
        sample("VoteGrant", sampleVoteGrant()),
        sample("NotLeader", sampleNotLeader()),
        sample("MigrateOut", sampleMigrateOut()),
        sample("MigrateIn", sampleMigrateIn()),
        sample("Meta", MetaRecord{7, 42}),
        sample("VmUpsert", sampleVmRecord()),
        sample("VmRemove", VidRecord{"vm-7"}),
        sample("ServerUpsert", sampleServerRecord()),
        sample("PolicySet", PolicyRecord{"vm-7", ResponsePolicy::Migrate}),
        sample("LaunchUpsert", samplePendingLaunch()),
        sample("LaunchRemove", VidRecord{"vm-7"}),
        sample("AttestUpsert", AttestRecord{42, sampleAttestContext()}),
        sample("AttestRemove", AttestIdRecord{42}),
        sample("ResponseUpsert", ResponseLogRecord{3, sampleResponseRecord()}),
        sample("AsHealthSet", AsHealthRecord{"attestation-server", 2, true}),
        sample("RelayRemember", RelayRecord{"alice", 9, {0xc1, 0x06, 0x00}}),
        sample("ReportRemember", ReportRecord{11, {0x08, 0x0b}}),
        sample("CertInsert", CertRecord{{0xd1, 0xd2}, sampleAvkBytes()}),
        sample("CertIssued",
               IssuedRecord{4, 1, "server-1", "sess-4", {0x0a, 0x06}}),
    };
}

} // namespace monatt::samples

#endif // MONATT_TESTS_PROTO_WIRE_SAMPLES_H
