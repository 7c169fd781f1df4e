/**
 * @file
 * The Cloud facade: a complete CloudMonatt deployment in one object.
 *
 * Wires the four entities of Figure 1 over the simulated network:
 * customers, the Cloud Controller, the Attestation Server (plus the
 * privacy CA), and a configurable number of secure cloud servers.
 * Handles the trusted provisioning the paper assumes exists: identity
 * keys published to the certificate infrastructure, server capability
 * records in the controller's database, flavor definitions, known-good
 * platform digests and catalog image digests in the Attestation
 * Server's database.
 *
 * Blocking helpers (launchVm, attestOnce) drive the event queue until
 * the asynchronous protocol completes — they are conveniences for
 * tests, examples and benches; everything underneath is genuinely
 * message driven.
 */

#ifndef MONATT_CORE_CLOUD_H
#define MONATT_CORE_CLOUD_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attestation/attestation_server.h"
#include "attestation/privacy_ca.h"
#include "controller/cloud_controller.h"
#include "controller/controller_fabric.h"
#include "core/customer.h"
#include "net/network.h"
#include "net/secure_endpoint.h"
#include "server/cloud_server.h"
#include "sim/checkpoint_policy.h"
#include "sim/event_queue.h"
#include "sim/fault_plan.h"

namespace monatt::core
{

/** Deployment configuration. */
struct CloudConfig
{
    int numServers = 2;

    /** Attestation Servers; servers are assigned round-robin to
     * clusters (§3.2.3 scalability). */
    int numAttestationServers = 1;
    std::uint64_t seed = 20150613;
    proto::TimingModel timing;
    net::LinkParams link; //!< 1 Gbps, 100 us by default.
    hypervisor::CreditScheduler::Params sched;
    int serverPcpus = 4;

    /** Capabilities granted to every server; empty = all four. */
    std::set<proto::SecurityProperty> serverCapabilities;

    /** Pristine platform software (measured at boot). */
    Bytes hypervisorCode = toBytes("xen-4.2.1-pristine");
    Bytes hostOsCode = toBytes("dom0-linux-3.11-pristine");

    /**
     * Firmware TCB version every server boots with (reported in the
     * TcbVersion measurement when an AS demands it). A rolled-back
     * host reports the fault plan's downgraded version instead.
     */
    std::uint64_t serverFirmwareVersion = 2;

    /**
     * Minimum-TCB policy installed on every Attestation Server
     * (DESIGN.md §18): 0 (the default) disarms the policy and keeps
     * legacy golden traces byte-identical; a positive floor makes the
     * AS demand the TcbVersion measurement and fail any property with
     * TcbRollback when the host's firmware is below it (or when a
     * stale quote is replayed). Per-property overrides beat the floor.
     */
    std::uint64_t minimumTcbVersion = 0;
    std::map<proto::SecurityProperty, std::uint64_t> tcbPropertyFloors;

    std::size_t identityKeyBits = 512;
    std::size_t aikBits = 512;

    /** Ablation: intercepting measurement collection (see
     * server::CloudServerConfig::intrusivePause). */
    SimTime serverIntrusivePause = 0;

    /**
     * AVK session reuse on the servers
     * (server::CloudServerConfig::aikReuseLimit); 1 reproduces the
     * paper's fresh-key-per-attestation flow on every round.
     */
    std::uint64_t aikReuseLimit = 16;

    /**
     * End-to-end reliability layer: retransmission timers, receive-side
     * dedup, AS failover, terminal verdicts. On by default in the full
     * deployment; a loss-free run is unperturbed because every timer
     * waits out its request's service time and is cancelled before it
     * fires (see proto::ReliabilityModel).
     */
    proto::ReliabilityModel reliability =
        proto::ReliabilityModel::enabledDefaults();

    /**
     * Durable control plane: the controller, Attestation Servers and
     * pCA journal their recoverable state to write-ahead StableStores
     * and replay it on restart. Journal writes cost zero simulated
     * time and recovery only runs after a crash, so clean-wire runs
     * are byte-identical either way (bench_recovery A/Bs this knob).
     */
    bool durableControlPlane = true;

    /** Journal-compaction triggers (count / size / age) passed to
     * every durable entity. */
    sim::CheckpointPolicyConfig checkpointPolicy;

    /**
     * Controller shards behind the consistent-hash fabric. 1 (the
     * default) reproduces the classic single Cloud Controller
     * bit-for-bit: same node id, same key seed, same vid/attest-id
     * spaces, same message bytes. Larger values split VM ownership
     * across independent shards (each with its own journal, dedup
     * cache and adaptive RTO state); customers route every request to
     * the owning shard client-side via the ring.
     */
    int controllerShards = 1;

    /** Virtual nodes per shard on the ownership ring. */
    int controllerRingVirtualNodes =
        controller::HashRing::kDefaultVirtualNodes;

    /**
     * Replicas per controller shard; every shard is a replica group,
     * and 1 (the default) is a group of one: it is its own majority,
     * so it releases output at each handler's commit point, arms no
     * replication timer, and after a restart leads again at once.
     * Larger groups stream the leader's journal to the followers and
     * release externally visible output only once a majority holds
     * it durably; when a leader crashes, a follower wins a
     * deterministic election and resumes from the mirrored journal.
     * Replica 0 keeps the shard's base id; replica r is
     * "<base-id>-replica-<r>". Only base ids sit on the ownership
     * ring, so replica failures never remap VM ownership. Forces the
     * durable control plane on (the journal is what streams).
     */
    int controllerReplicas = 1;

    /**
     * Replication heartbeat / election tuning (heartbeatInterval,
     * electionTimeoutMin/Max). Election timeouts are drawn
     * deterministically per (replica, round), so a fixed seed elects
     * the same leader every run. Ignored at controllerReplicas = 1.
     */
    controller::ElectionTuning controllerElection;

    /**
     * Bound for every receive-side dedup cache (controller relay
     * cache, AS report cache, pCA issued-certificate cache). FIFO
     * eviction, deterministic order; tests shrink it to force
     * eviction.
     */
    std::size_t dedupCacheCapacity = 128;

    /**
     * Schema version every node encodes at (DESIGN.md §17). Decoders
     * skip unknown fields and default missing ones, so a mixed-version
     * fleet interoperates without negotiation; flip individual nodes
     * at runtime with setNodeWireContext() to simulate a rolling
     * upgrade.
     */
    proto::WireContext wire;
};

/** The deployment. */
class Cloud
{
  public:
    explicit Cloud(CloudConfig config = {});

    /** Create (and register) a customer. */
    Customer &addCustomer(const std::string &id);

    // --- Entity access -------------------------------------------------

    /** Shard 0 — the classic controller (id "cloud-controller"). */
    controller::CloudController &controller()
    {
        return controlPlane->shard(0);
    }

    /** The sharded control plane. */
    controller::ControllerFabric &controllerFabric()
    {
        return *controlPlane;
    }

    /** The controller shard owning a VM id. */
    controller::CloudController &controllerFor(const std::string &vid)
    {
        return controlPlane->ownerOf(vid);
    }

    /** The first (default) attestation server. */
    attestation::AttestationServer &attestationServer()
    {
        return *attestors.front();
    }

    /** Attestation server by cluster index. */
    attestation::AttestationServer &attestationServer(std::size_t index)
    {
        return *attestors.at(index);
    }

    std::size_t numAttestationServers() const { return attestors.size(); }
    attestation::PrivacyCa &privacyCa() { return *pca; }
    server::CloudServer &server(std::size_t index);
    server::CloudServer *serverById(const std::string &id);
    std::size_t numServers() const { return servers.size(); }

    /** The server currently hosting a VM (nullptr when none). */
    server::CloudServer *serverHosting(const std::string &vid);

    sim::EventQueue &events() { return eventQueue; }
    net::Network &network() { return fabric; }
    net::KeyDirectory &directory() { return keyDirectory; }
    const CloudConfig &config() const { return cfg; }

    // --- Fault injection -----------------------------------------------

    /**
     * Install a deterministic fault plan on the fabric and schedule
     * its crash/restart events (CloudServer and AttestationServer ids
     * resolve to real teardown/rejoin; other ids are ignored). Call
     * before driving the simulation. Passing a default-constructed
     * config effectively disables fault injection.
     */
    void installFaultPlan(const sim::FaultPlanConfig &planConfig);

    /** The installed plan (nullptr when none). */
    const sim::FaultPlan *faultPlan() const { return plan.get(); }

    /**
     * Crash / restart one node by id (used by the crash schedule;
     * public so tests can script outages directly). Resolves cloud
     * servers, Attestation Servers, controller shards and the pCA.
     *
     * @return An error naming the node when it matches no entity —
     *   a silently ignored typo in a fault plan would otherwise turn
     *   a chaos test into a clean-wire run.
     */
    Status crashNode(const std::string &node);
    Status restartNode(const std::string &node);

    /**
     * Switch one node's emitted schema version at runtime (rolling
     * upgrade simulation). Resolves cloud servers, Attestation
     * Servers, controller shard replicas, the pCA and customers. The
     * node keeps decoding every version; only what it sends changes.
     */
    Status setNodeWireContext(const std::string &node,
                              const proto::WireContext &ctx);

    /** Convenience: restart every crashed controller shard (each
     * replays its own journal). */
    void restartController() { controlPlane->restartAll(); }

    // --- Simulation driving --------------------------------------------

    /** Advance simulated time by `duration`. */
    void runFor(SimTime duration);

    /**
     * Run until `predicate` becomes true or `timeout` elapses.
     * @return True when the predicate fired.
     */
    bool runUntil(const std::function<bool()> &predicate, SimTime timeout);

    // --- Blocking conveniences ------------------------------------------

    /**
     * Launch a VM from the standard catalog and wait for the outcome.
     *
     * @return The vid on success.
     */
    Result<std::string> launchVm(
        Customer &customer, const std::string &name,
        const std::string &imageName, const std::string &flavorName,
        const std::vector<proto::SecurityProperty> &properties,
        SimTime timeout = seconds(120));

    /** Launch with custom image content (e.g. a tampered image). */
    Result<std::string> launchVmWithImage(
        Customer &customer, const std::string &name,
        const std::string &imageName, const std::string &flavorName,
        const std::vector<proto::SecurityProperty> &properties,
        const Bytes &imageContent, std::uint64_t imageSizeMb,
        SimTime timeout = seconds(120));

    /** One-shot attestation; waits for the verified report. */
    Result<VerifiedReport> attestOnce(
        Customer &customer, const std::string &vid,
        const std::vector<proto::SecurityProperty> &properties,
        SimTime timeout = seconds(120));

    /**
     * Fan out one-shot attestations for all `vids` at once and wait
     * until every verified report arrived (or `timeout` simulated time
     * passed). The requests are in flight concurrently, so they
     * contend for the controller's service queue and the servers'
     * shared AVK sessions. Results are returned in `vids` order.
     */
    std::vector<Result<VerifiedReport>> attestMany(
        Customer &customer, const std::vector<std::string> &vids,
        const std::vector<proto::SecurityProperty> &properties,
        SimTime timeout = seconds(120));

    /** Register per-VM reference data with the Attestation Server. */
    void provisionVmReference(const std::string &vid,
                              attestation::VmReference ref);

  private:
    CloudConfig cfg;
    sim::EventQueue eventQueue;
    net::Network fabric;
    net::KeyDirectory keyDirectory;

    std::unique_ptr<attestation::PrivacyCa> pca;
    std::vector<std::unique_ptr<attestation::AttestationServer>> attestors;
    std::unique_ptr<controller::ControllerFabric> controlPlane;
    std::vector<std::unique_ptr<server::CloudServer>> servers;
    std::vector<std::unique_ptr<Customer>> customers;
    std::unique_ptr<sim::FaultPlan> plan;
};

/** Expected PCR value after one extend of `code` over a zero PCR. */
Bytes expectedBootPcr(const Bytes &code);

/** Expected PCR0 || PCR1 platform digest for pristine software. */
Bytes expectedPlatformDigest(const Bytes &hypervisorCode,
                             const Bytes &hostOsCode);

} // namespace monatt::core

#endif // MONATT_CORE_CLOUD_H
