/**
 * @file
 * The Cloud Server — the attester of the CloudMonatt architecture.
 *
 * One instance models one physical machine in the data center: the
 * Type-I hypervisor with guest domains, the hardware Trust Module,
 * the Monitor Module, and the host-VM software stack — the
 * Attestation Client (oat client in the prototype, §6.3) and the
 * Management Client (nova compute).
 *
 * The attestation path follows the eight functional steps of
 * Figure 2: (1) the Attestation Client takes a measurement request;
 * (2) it invokes the Monitor Module to collect; (3) the Trust Module
 * generates a fresh per-session attestation key pair, signed by the
 * identity key and certified by the privacy CA; (4,5) measurements
 * land in Trust Evidence Registers; (6) the Crypto Engine signs the
 * quote; (7,8) the signed response returns to the Attestation
 * Server.
 */

#ifndef MONATT_SERVER_CLOUD_SERVER_H
#define MONATT_SERVER_CLOUD_SERVER_H

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/fifo_map.h"
#include "hypervisor/hypervisor.h"
#include "net/secure_endpoint.h"
#include "proto/messages.h"
#include "proto/timing_model.h"
#include "server/catalog.h"
#include "server/monitor_module.h"
#include "sim/event_queue.h"
#include "sim/rollback_faults.h"
#include "tpm/trust_module.h"

namespace monatt::server
{

/** Static configuration of one cloud server. */
struct CloudServerConfig
{
    std::string id;
    std::string controllerId = "cloud-controller";

    /**
     * Every controller shard allowed to command this server. Under a
     * sharded control plane a VM's owning shard (any of them) sends
     * the launch/terminate/suspend/resume/migrate commands. Empty =
     * just controllerId.
     */
    std::set<std::string> controllerIds;
    std::string attestationServerId = "attestation-server";
    std::string pcaId = "privacy-ca";

    /**
     * All Attestation Servers allowed to request measurements. Under
     * controller failover a request for a VM hosted here may arrive
     * from any AS in the cloud, not just the cluster's primary. Empty
     * = just attestationServerId.
     */
    std::set<std::string> attestorIds;

    /** Retransmission knobs (pCA round trip, handshakes). */
    proto::ReliabilityModel reliability;

    /** Security properties this server can monitor (the capability
     * table the controller's property_filter consults). */
    std::set<proto::SecurityProperty> capabilities;

    /** Physical resources (testbed: quad core, 32 GB). */
    int pcpus = 4;
    std::uint64_t totalRamMb = 32768;
    std::uint64_t totalDiskGb = 500;

    hypervisor::CreditScheduler::Params sched;
    Bytes hypervisorCode;
    Bytes hostOsCode;

    /**
     * Firmware TCB version of this host's platform stack, measured
     * into the TcbVersion measurement when an Attestation Server
     * requests it (minimum-TCB policy, DESIGN.md §18). A rolled-back
     * host reports the attacker's downgraded version instead.
     */
    std::uint64_t firmwareVersion = 2;

    proto::TimingModel timing;
    std::size_t identityKeyBits = 512;
    std::size_t aikBits = 512;

    /**
     * Ablation knob: when nonzero, measurement collection pauses the
     * attested VM for this long (an intercepting monitor), instead of
     * the paper's non-intrusive collection at VM switch ("the VMM
     * Profile Tool does not intercept the VM's execution", §7.1.2).
     */
    SimTime intrusivePause = 0;

    /**
     * Number of MeasureResponses one attestation session {AVKs, ASKs}
     * may serve before the Trust Module rotates it. 1 reproduces the
     * paper's fresh-key-per-attestation flow; larger values amortize
     * AIK generation and the pCA round trip across periodic rounds
     * (the Attestation Server's certificate cache then verifies the
     * chain once per AVK session instead of once per response).
     */
    std::uint64_t aikReuseLimit = 16;

    /** Schema version this node encodes at (DESIGN.md §17). */
    proto::WireContext wire;
};

/** A hosted VM's record on the server. */
struct HostedVm
{
    std::string vid;
    hypervisor::DomainId domain = -1;
    std::uint32_t vcpus = 1;
    std::uint64_t ramMb = 0;
    std::uint64_t diskGb = 0;
    std::uint64_t imageSizeMb = 0;
    Bytes image;
    int weight = 256;
    bool suspended = false;
};

/** The cloud server. */
class CloudServer
{
  public:
    CloudServer(sim::EventQueue &eq, net::Network &network,
                net::KeyDirectory &directory, CloudServerConfig config,
                std::uint64_t seed);

    /** Boot the platform: measure software into the TPM, start the
     * scheduler, publish the identity key. */
    void boot();

    /** Node id. */
    const std::string &id() const { return cfg.id; }

    /** Identity public key VKs. */
    const crypto::RsaPublicKey &identityPublic() const
    {
        return trust.identityPublic();
    }

    /** Supported monitoring capabilities. */
    const std::set<proto::SecurityProperty> &capabilities() const
    {
        return cfg.capabilities;
    }

    /** Resources still free. */
    std::uint64_t freeRamMb() const;
    std::uint64_t freeDiskGb() const;

    /** The hypervisor (tests/benches install workloads through it). */
    hypervisor::Hypervisor &hypervisor() { return hyp; }

    /** The Trust Module. */
    tpm::TrustModule &trustModule() { return trust; }

    /** The Monitor Module. */
    MonitorModule &monitorModule() { return monitor; }

    /** True when the named VM is hosted here. */
    bool hasVm(const std::string &vid) const
    {
        return vms.count(vid) != 0;
    }

    /** Hosted VM record. @throws std::out_of_range when absent. */
    const HostedVm &vm(const std::string &vid) const;

    /** Hypervisor domain of a hosted VM. */
    hypervisor::DomainId domainOf(const std::string &vid) const;

    /** Guest OS of a hosted VM (attack injection in tests). */
    hypervisor::GuestOs &guestOs(const std::string &vid);

    /** Number of hosted VMs. */
    std::size_t vmCount() const { return vms.size(); }

    const CloudServerConfig &config() const { return cfg; }

    /**
     * Simulate a crash of the management plane: detach from the
     * network and drop all volatile attestation state (in-flight
     * sessions, dedup caches). Hosted VMs keep running — the
     * hypervisor is below the crashing software stack.
     */
    void crash();

    /** Rejoin the network after a crash. */
    void restart();

    /** True while attached to the network. */
    bool isUp() const { return endpoint.attached(); }

    /** Schema version this node emits (mixed-version tests flip it
     * at runtime to simulate a rolling upgrade). */
    const proto::WireContext &wireContext() const { return cfg.wire; }
    void setWireContext(const proto::WireContext &ctx) { cfg.wire = ctx; }

    /**
     * Install the TCB-rollback attacker model (nullptr = honest
     * host). Wired by core::Cloud when a fault plan is installed; the
     * attack behaviors apply only inside [activeFrom, activeUntil).
     */
    void setRollbackFaults(const sim::RollbackFaultModel *model,
                           SimTime activeFrom = 0,
                           SimTime activeUntil = kTimeNever)
    {
        rollbackFaults = model;
        rollbackActiveFrom = activeFrom;
        rollbackActiveUntil = activeUntil;
    }

    /** The TCB version this host currently reports (the downgraded
     * build while a rollback attack is active). */
    std::uint64_t effectiveTcbVersion() const;

  private:
    struct PendingAttestation
    {
        proto::MeasureRequest request;
        net::NodeId requester; //!< AS to answer (failover-aware).
        tpm::SessionHandle session = 0;
        std::string sessionLabel;
        Bytes certificate;
        bool haveCert = false;
        proto::MeasurementSet m;
        bool measured = false;
        Bytes certRequestBytes; //!< For identical pCA retries.
        sim::Exchange cert;     //!< The CertRequest's.
    };

    void handleMessage(const net::NodeId &from, const Bytes &plaintext);

    /** Pack an outgoing message at this node's schema version. */
    template <typename M>
    Bytes pack(proto::MessageKind kind, const M &msg) const
    {
        return proto::packFor(cfg.wire, kind, msg);
    }

    void onMeasureRequest(const net::NodeId &from, const Bytes &body);
    void onCertResponse(const Bytes &body);
    void onLaunchVm(const net::NodeId &from, const Bytes &body);
    void onTerminateVm(const net::NodeId &from, const Bytes &body);
    void onSuspendVm(const net::NodeId &from, const Bytes &body);
    void onResumeVm(const net::NodeId &from, const Bytes &body);
    void onMigrateOut(const net::NodeId &from, const Bytes &body);
    void onMigrateIn(const net::NodeId &from, const Bytes &body);
    void onMigrateInAck(const net::NodeId &from, const Bytes &body);

    /** Open a fresh AVK session, send it to the pCA for certification
     * and start collecting measurements (step 3 of Figure 2). */
    void beginAikSession(std::uint64_t requestId);
    void collectMeasurements(std::uint64_t requestId);
    void finishMeasurements(std::uint64_t requestId);

    /** Sign and send the response once certificate and measurements
     * are both in. */
    void maybeRespond(std::uint64_t requestId);
    hypervisor::DomainId createVmDomain(const proto::LaunchVm &req);

    /** Drop a pending attestation's hold on a Trust Module session;
     * ends the session once it is neither in flight nor cached. */
    void releaseSession(tpm::SessionHandle handle);

    /** Install a freshly certified session as the reusable AVK. */
    void cacheAikSession(const PendingAttestation &pa);

    /** True when `from` is an authorized Attestation Server. */
    bool isAttestor(const net::NodeId &from) const;

    /** True when `from` is a controller shard we obey. */
    bool isController(const net::NodeId &from) const;

    /** Arm the pCA retransmission timer for a pending attestation. */
    void scheduleCertRetry(std::uint64_t requestId);

    sim::EventQueue &events;
    CloudServerConfig cfg;
    tpm::TrustModule trust;
    hypervisor::Hypervisor hyp;
    MonitorModule monitor;
    net::SecureEndpoint endpoint;

    /**
     * The reusable attestation session: one certified {AVKs, ASKs}
     * serving up to aikReuseLimit responses. `remaining` counts the
     * responses it may still serve; `handle` stays open in the Trust
     * Module while cached or in flight.
     */
    struct AikSessionCache
    {
        tpm::SessionHandle handle = 0;
        std::string label;
        Bytes certificate;
        std::uint64_t remaining = 0;
    };

    std::map<std::string, HostedVm> vms;
    std::map<std::uint64_t, PendingAttestation> pending;
    std::map<std::string, std::uint64_t> certToRequest;

    /**
     * Recently answered MeasureRequests: requestId -> encoded signed
     * response. A retransmitted request is answered from here so the
     * TPM never re-executes a quote for the same (requestId, nonce3).
     * Bounded FIFO.
     */
    FifoMap<std::uint64_t, Bytes> responseCache{64};
    AikSessionCache aikCache;
    /** In-flight uses per Trust Module session handle. */
    std::map<tpm::SessionHandle, std::size_t> sessionRefs;

    /** Pending migration: vid -> controller that asked. */
    std::map<std::string, net::NodeId> migrations;

    // --- TCB-rollback attacker hooks (sim/rollback_faults.h) -------

    /** True when the attacker model is armed for `now`. */
    bool rollbackActive() const;

    /**
     * Last honestly-sent measurement content per vid — the stale
     * evidence a compromised host re-signs for fresh challenges.
     * Volatile attacker state (cleared with the rest on crash).
     */
    struct StaleStash
    {
        proto::MeasurementRequestList rm;
        proto::MeasurementSet m;
        Bytes nonce3;
    };
    std::map<std::string, StaleStash> staleStash;

    const sim::RollbackFaultModel *rollbackFaults = nullptr;
    SimTime rollbackActiveFrom = 0;
    SimTime rollbackActiveUntil = kTimeNever;

    std::uint64_t allocatedRamMb = 0;
    std::uint64_t allocatedDiskGb = 0;
    std::uint64_t sessionCounter = 0;
    int nextPcpu = 0;
};

} // namespace monatt::server

#endif // MONATT_SERVER_CLOUD_SERVER_H
