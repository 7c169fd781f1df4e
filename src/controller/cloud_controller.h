/**
 * @file
 * The Cloud Controller — the cloud manager (§3.2.2, §6.1).
 *
 * Implements the modified nova stack of the prototype: nova api
 * (customer launch + the four attestation commands of Table 1), nova
 * database (controller/database.h), the modified nova scheduler with
 * its property_filter (controller/policy.h), nova attest_service
 * (forwarding to the Attestation Server, report verification and
 * relay), and nova response (the remediation strategies of §5).
 *
 * VM launch runs the five stages of §7.1.1 — Scheduling, Networking,
 * Block_device_mapping, Spawning, and the new Attestation stage —
 * against the simulated clock, recording a per-stage StageTimer that
 * the Figure 9 bench reads back. Startup attestation outcomes drive
 * the §5.1 responses: platform integrity failure → reschedule to
 * another qualified server; image integrity failure → reject the
 * launch.
 */

#ifndef MONATT_CONTROLLER_CLOUD_CONTROLLER_H
#define MONATT_CONTROLLER_CLOUD_CONTROLLER_H

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/fifo_map.h"
#include "controller/database.h"
#include "controller/journal.h"
#include "controller/policy.h"
#include "controller/replicated_log.h"
#include "net/secure_endpoint.h"
#include "proto/durable_log.h"
#include "proto/messages.h"
#include "proto/timing_model.h"
#include "sim/event_queue.h"

namespace monatt::controller
{

class HashRing;

/** Controller configuration (built only by ControllerFabric). */
struct CloudControllerConfig
{
    std::string id = "cloud-controller";
    proto::TimingModel timing;
    proto::ReliabilityModel reliability;
    std::size_t identityKeyBits = 512;

    /**
     * Every Attestation Server in the cloud, in failover preference
     * order; never empty. When an AS exhausts its forward-retry budget
     * the request fails over to the next non-suspect AS here. The first
     * one serves servers mapped to no cluster.
     */
    std::vector<std::string> attestorIds;

    /**
     * Durable control plane: journal every database and protocol-state
     * mutation to a write-ahead StableStore and recover from it after
     * a crash. Journal appends cost zero simulated time and every
     * recovery action happens only after a crash, so clean-wire runs
     * are byte-identical with durability on or off.
     */
    bool durable = true;

    /**
     * Journal-compaction triggers (count / size / age); all axes 0 =
     * never checkpoint (journal grows without bound). Evaluated by a
     * shared sim::CheckpointPolicy at the end of every mutating
     * event handler.
     */
    sim::CheckpointPolicyConfig checkpointPolicy;

    /** Capacity of the customer relay dedup cache (bounded FIFO). */
    std::size_t relayCacheCapacity = 128;

    /**
     * Shard placement (set by ControllerFabric). `ring` is the
     * fabric's consistent-hash ownership ring — non-owning, never
     * null, must outlive the controller. A shard allocates only vids
     * the ring maps to its group and tags attest ids with the shard
     * index so they stay globally unique across shards. Shard 0 keeps
     * the untagged id space, which is what makes a 1-shard fabric
     * bit-identical to the single controller.
     */
    int shardIndex = 0;
    const HashRing *ring = nullptr;

    /**
     * Replica group this controller belongs to (set by
     * ControllerFabric; a group of one included): every replica id of
     * the shard, index 0 = the primary, whose id is the shard's base
     * id and who boots as the round-1 leader. `replicaIndex` is this
     * node's position. A group of more than one requires `durable`
     * (the journal is what streams).
     */
    std::vector<std::string> groupIds;
    int replicaIndex = 0;
    ElectionTuning election;
};

/** Observable counters. */
struct ControllerStats
{
    std::uint64_t launchesRequested = 0;
    std::uint64_t launchesSucceeded = 0;
    std::uint64_t launchesRejected = 0;
    std::uint64_t launchesRescheduled = 0;
    std::uint64_t reportsRelayed = 0;
    std::uint64_t reportVerificationFailures = 0;
    std::uint64_t responsesTriggered = 0;
    std::uint64_t forwardRetries = 0;       //!< AttestForward resends.
    std::uint64_t failovers = 0;            //!< Requests moved to another AS.
    std::uint64_t attestationsUnreachable = 0; //!< Terminal give-ups.
    std::uint64_t duplicateAttestRequests = 0; //!< Dedup'd customer sends.
    std::uint64_t recoveries = 0;          //!< Journal replays completed.
    std::uint64_t corruptRecoveries = 0;   //!< Recoveries that healed a
                                           //!< torn/rotted durable image.
    std::uint64_t recoveredAttests = 0;    //!< Attestations re-armed.
    std::uint64_t recoveredLaunches = 0;   //!< Launches re-driven.
    std::uint64_t tcbRollbackReports = 0;  //!< Reports with a TcbRollback
                                           //!< verdict (stale firmware).
    std::uint64_t serversQuarantined = 0;  //!< Hosts evicted for stale TCB.

    /** Field-wise sum: every counter, for fabric-wide totals. */
    ControllerStats &operator+=(const ControllerStats &o)
    {
        launchesRequested += o.launchesRequested;
        launchesSucceeded += o.launchesSucceeded;
        launchesRejected += o.launchesRejected;
        launchesRescheduled += o.launchesRescheduled;
        reportsRelayed += o.reportsRelayed;
        reportVerificationFailures += o.reportVerificationFailures;
        responsesTriggered += o.responsesTriggered;
        forwardRetries += o.forwardRetries;
        failovers += o.failovers;
        attestationsUnreachable += o.attestationsUnreachable;
        duplicateAttestRequests += o.duplicateAttestRequests;
        recoveries += o.recoveries;
        corruptRecoveries += o.corruptRecoveries;
        recoveredAttests += o.recoveredAttests;
        recoveredLaunches += o.recoveredLaunches;
        tcbRollbackReports += o.tcbRollbackReports;
        serversQuarantined += o.serversQuarantined;
        return *this;
    }
};

/**
 * The Cloud Controller entity: one replica of a shard's replica group.
 * Its ReplicatedLog decides whether it leads; a leader runs the
 * handlers below, and every externally visible send leaves through the
 * log's output gate at the handler's commit point.
 */
class CloudController : private ReplicatedLog::Io
{
  public:
    CloudController(sim::EventQueue &eq, net::Network &network,
                    net::KeyDirectory &directory,
                    CloudControllerConfig config, std::uint64_t seed);

    const std::string &id() const { return cfg.id; }

    /** Identity public key VKc. */
    const crypto::RsaPublicKey &identityPublic() const
    {
        return keys.pub;
    }

    /** The cloud database (provisioned by the cloud operator). */
    CloudDatabase &database() { return db; }
    const CloudDatabase &database() const { return db; }

    /** Set the remediation policy applied to a VM's bad reports. */
    void setResponsePolicy(const std::string &vid, ResponsePolicy policy);

    /** Register a flavor (vCPUs / RAM / disk) customers may request. */
    void addFlavor(const std::string &name, std::uint32_t vcpus,
                   std::uint64_t ramMb, std::uint64_t diskGb);

    /**
     * Map a cloud server to the Attestation Server of its cluster
     * (§3.2.3: "There can be different Attestation Servers for
     * different clusters of cloud servers, enabling scalability").
     * Unmapped servers use the first attestor.
     */
    void assignAttestationCluster(const std::string &serverId,
                                  const std::string &attestorId);

    /** Executed responses (Figure 11 reads the timings). */
    const std::vector<ResponseRecord> &responseLog() const
    {
        return responses;
    }

    ControllerStats stats() const
    {
        ControllerStats s = counters;
        s.recoveries = log.recoveries();
        s.corruptRecoveries = log.corruptRecoveries();
        return s;
    }

    /**
     * Simulated crash: detach from the network and drop all volatile
     * state plus the un-fsynced journal tail. Provisioned operator
     * config (flavors, clusters, the server inventory rows) survives
     * like files on disk; everything else must come back via
     * restart() -> recover().
     */
    void crash();

    /** Restart after crash(): re-attach and rejoin the group. A group
     * of one leads again at once and replays its journal; a larger
     * group's replica resyncs as a follower. */
    void restart();

    /** True while attached to the network (false between crash and
     * restart). */
    bool isUp() const { return endpoint.attached(); }

    /** The controller's durable store (journal + checkpoints). */
    const sim::StableStore &stableStore() const { return log.store(); }

    /** Install the disk-failure model on the store (nullptr = clean
     * disk). Wired by core::Cloud when a fault plan is installed. */
    void setStorageFaults(const sim::StorageFaultModel *model)
    {
        log.store().setFaultModel(model);
    }

    /** Replica-group introspection. */
    ReplicaRole role() const { return repl.role(); }
    std::uint64_t electionRound() const { return repl.round(); }

    /** The shard's base id (== cfg.id on the primary). */
    const std::string &groupId() const { return repl.groupId(); }

    /** Majority-durable output cursor (leader side). */
    std::uint64_t committedLsn() const { return repl.committedLsn(); }

    /** Relay dedup cache introspection (bounds tests). */
    std::size_t relayCacheSize() const { return relayCache.size(); }

    /** Cached customer request ids in FIFO eviction order. */
    std::vector<std::uint64_t> relayCacheRequestIds() const
    {
        std::vector<std::uint64_t> ids;
        for (const auto &[key, packed] : relayCache)
            ids.push_back(key.second);
        return ids;
    }

  private:
    /** Per-AS responsiveness tracking (suspects are skipped for
     * failover targets until they answer again). */
    struct AsHealth
    {
        int strikes = 0;
        bool suspect = false;
    };

    void handleMessage(const net::NodeId &from, const Bytes &plaintext);

    // ReplicatedLog::Io: the log's network, timers and leader callbacks.
    void send(const std::string &peer, Bytes packed) override;
    void resetPeer(const std::string &peer) override;
    void armTimer(ReplicaTimer timer, SimTime delay) override;
    void cancelTimer(ReplicaTimer timer) override;
    void becameLeader() override;
    void steppedDown() override;

    /**
     * Drop everything but the journal and operator provisioning
     * (flavors, clusters, server inventory rows survive like files on
     * disk): pending timers, the database's VMs, protocol state and
     * caches. Shared by crash() and steppedDown().
     */
    void resetVolatileState();

    void onLaunchRequest(const net::NodeId &from, const Bytes &body);
    void onAttestRequest(const net::NodeId &from, const Bytes &body);
    void onLaunchVmAck(const net::NodeId &from, const Bytes &body);
    void onReportToController(const Bytes &body);
    void onCommandAck(proto::MessageKind kind, const Bytes &body);

    void runSchedulingStage(const std::string &vid);
    void startSpawn(const std::string &vid);
    void startStartupAttestation(const std::string &vid);

    /**
     * Next vid owned by this shard: scans the global "vm-N" sequence
     * and claims only numbers the ring maps here. Shards partition the
     * vid space, so allocation never collides; unsharded (or 1-shard)
     * controllers claim every number, exactly like the pre-sharding
     * allocator.
     */
    std::string allocateVid();

    /** Tag a fresh attest counter value with the shard index (high 16
     * bits) so attest ids are globally unique across shards. Shard 0
     * ids are the untagged legacy counter. */
    std::uint64_t makeAttestId(std::uint64_t counter) const;

    /**
     * Serialize `cost` through this node's single service cursor and
     * return the delay until completion. Models the controller as one
     * event-loop node of finite capacity: work arriving while earlier
     * work is still being processed queues behind it. With at most one
     * request outstanding the delay equals `cost`, so sequential
     * scenarios are identical to the pre-queueing flat charge.
     */
    SimTime serviceDelay(SimTime cost);

    /** Service time an attestation's AttestForward asks of its AS. */
    SimTime forwardBudget(const AttestContext &ctx) const;

    /** (Re)send the AttestForward of an outstanding attestation to its
     * current attestor, rebuilt from the stored context (same nonce2,
     * so a late reply to any copy verifies). */
    void transmitForward(std::uint64_t attestId);

    /** Arm the forward retransmission timer. */
    void scheduleForwardRetry(std::uint64_t attestId);

    /** Timer body: retry, fail over, or give up. */
    void forwardRetryFired(std::uint64_t attestId);

    /** Terminal give-up: deliver a definitive non-verdict. */
    void giveUpAttestation(std::uint64_t attestId);

    /** Send (and cache) an AttestFailure to a customer. */
    void sendAttestFailure(const net::NodeId &customer,
                           std::uint64_t requestId,
                           const std::string &vid,
                           proto::FailureOutcome outcome,
                           const std::string &reason);

    /** True when `node` is one of the cloud's Attestation Servers. */
    bool isKnownAttestor(const net::NodeId &node) const;

    /** Next failover target: first non-suspect AS != `current` (any
     * AS != current when all are suspect); empty when none exists. */
    std::string alternativeAttestor(const std::string &current) const;
    void finishLaunch(const std::string &vid, bool ok,
                      const std::string &error);
    void rescheduleLaunch(const std::string &vid,
                          const std::string &reason);
    std::uint64_t forwardAttestation(AttestContext ctx);
    void handleStartupReport(const AttestContext &ctx,
                             const proto::ReportToController &msg);
    void handleCustomerReport(const AttestContext &ctx,
                              const proto::ReportToController &msg);
    /**
     * Start a §5 remediation for a negative report. `forceMigrate`
     * overrides the per-VM policy with Migrate — the rollback response:
     * a VM on firmware the appraiser refuses must leave the host even
     * when its customer never opted into a response policy.
     */
    void triggerResponse(const std::string &vid, SimTime attestStart,
                         const std::string &why,
                         const std::vector<proto::SecurityProperty>
                             &triggerProperties,
                         bool forceMigrate = false);

    /** Evict a host from scheduling after a rollback verdict. The
     * flag rides the journaled ServerRecord, so the decision survives
     * crash/recovery and replicates to shard followers. */
    void quarantineServer(const std::string &serverId,
                          const std::string &why);
    void executeMigration(const std::string &vid, std::size_t logIndex);
    void scheduleSuspendRecheck(const std::string &vid,
                                std::size_t logIndex);
    void handleRecheckReport(const AttestContext &ctx,
                             const proto::ReportToController &msg);

    /** Attestation Server responsible for a cloud server (clusters,
     * §3.2.3); falls back to the first attestor. */
    const std::string &attestorFor(const std::string &serverId) const;

    /**
     * Seamless monitoring across migration (§1: "A seamless
     * monitoring mechanism throughout the VMs' lifetime is therefore
     * highly desirable"): re-target every active periodic attestation
     * of `vid` from `oldServer` to the VM's new server, stopping the
     * stale task on the old cluster's attestor when the cluster
     * changed.
     */
    void retargetPeriodicAttestations(const std::string &vid,
                                      const std::string &oldServer);

    sim::EventQueue &events;
    CloudControllerConfig cfg;
    crypto::RsaKeyPair keys;
    /** Compiled identity key for customer-relay signatures. */
    crypto::RsaPrivateContext signCtx;
    const net::KeyDirectory &dir;
    net::SecureEndpoint endpoint;
    CloudDatabase db;
    Rng rng;
    /** Compiled attestor verification keys. */
    crypto::RsaPublicContextCache attestorKeys;

    struct FlavorSpec
    {
        std::uint32_t vcpus;
        std::uint64_t ramMb;
        std::uint64_t diskGb;
    };

    std::map<std::string, FlavorSpec> flavors;
    std::map<std::string, std::string> clusters; //!< server -> AS id.
    std::map<std::string, PendingLaunch> launches; //!< By vid.
    std::map<std::uint64_t, AttestContext> attests; //!< By attest id.
    std::map<std::string, ResponsePolicy> policies; //!< By vid.
    std::vector<ResponseRecord> responses;

    /** Outstanding response command: vid -> response log index. */
    std::map<std::string, std::size_t> outstandingResponses;

    /** AS responsiveness, keyed by attestor id. */
    std::map<std::string, AsHealth> asHealth;

    /**
     * Receive-side dedup for customer AttestRequests, keyed by
     * (customer, customer request id): in-flight requests swallow
     * retransmissions; completed ones are answered by re-sending the
     * cached packed reply (ReportToCustomer or AttestFailure) without
     * re-signing. Bounded by cfg.relayCacheCapacity.
     */
    using CustomerKey = std::pair<net::NodeId, std::uint64_t>;
    std::set<CustomerKey> customerInFlight;
    FifoMap<CustomerKey, Bytes> relayCache;

    /** Cache a packed customer reply and clear its in-flight mark. */
    void rememberRelay(const CustomerKey &key, Bytes packed);

    // --- Durability (write-ahead journal) ------------------------------

    /** WAL helpers: append the current value of one state item. Each
     * upsert helper journals a remove when the item no longer exists,
     * so one call site covers both mutations. No-ops when durability
     * is off or during replay. */
    void journalMeta();
    void journalVm(const std::string &vid);
    void journalServer(const std::string &serverId);
    void journalPolicy(const std::string &vid);
    void journalLaunch(const std::string &vid);
    void journalAttest(std::uint64_t attestId);
    void journalResponse(std::size_t index);
    void journalAsHealth(const std::string &attestorId);

    /** The log's commit point (sync, stream, checkpoint, release);
     * called at the end of every event-handler body so no externally
     * visible state is lost. */
    void commitJournal() { repl.commit(events.now()); }

    /** Checkpoint snapshot: the records that rebuild the state. */
    proto::Snapshot snapshotState() const;
    void applyJournalRecord(const sim::JournalRecord &rec);

    /** Re-arm recovered work (run by log.recover() after replay). */
    void rearmRecoveredWork();

    /** Re-send the remediation command of an incomplete response. */
    void resendResponseCommand(std::size_t logIndex);

    /** Journal, checkpoints and crash era: scheduled lambdas capture
     * log.era() and bail once it is stale, so pre-crash callbacks
     * cannot double-act on recovered state. */
    proto::DurableLog log;

    /** The group's replication protocol; decides who leads. */
    ReplicatedLog repl;
    /** Pending heartbeat / election timer, by ReplicaTimer (0 = none). */
    std::array<sim::EventId, 2> replTimers{};

    /** Forward RTT estimate per (attestor, server) path: a forward's
     * network remainder runs through both, so a failed-over request
     * starts from the fixed knob on its new path (volatile; adaptive
     * RTOs fall back to the fixed knob until fresh samples arrive). */
    std::map<std::pair<std::string, std::string>, sim::RttEstimator>
        pathRtt;

    std::uint64_t nextVmNumber = 1;
    std::uint64_t nextAttestId = 1;

    /** Busy-until cursor backing serviceDelay(); volatile (reset on
     * crash — a rebooted node starts idle). */
    SimTime busyUntil = 0;
    ControllerStats counters;
};

} // namespace monatt::controller

#endif // MONATT_CONTROLLER_CLOUD_CONTROLLER_H
