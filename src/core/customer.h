/**
 * @file
 * The Cloud Customer — initiator and end-verifier (§3.2.1).
 *
 * Exposes the public API of Table 1:
 *
 *   startup_attest_current(Vid, P, N)
 *   runtime_attest_current(Vid, P, N)
 *   runtime_attest_periodic(Vid, P, freq, N)
 *   stop_attest_periodic(Vid, P, N)
 *
 * plus VM leasing. Every attestation request carries a fresh nonce
 * N1; every received report is verified end to end — the controller's
 * identity signature SKc over [Vid, P, R, N1, Q1], the recomputed
 * quote Q1 = H(Vid || P || R || N1), and the nonce binding to an
 * outstanding request — before it is surfaced to the application.
 * Reports failing any check are counted and discarded: the customer
 * cannot be fed a forged attestation result.
 */

#ifndef MONATT_CORE_CUSTOMER_H
#define MONATT_CORE_CUSTOMER_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/secure_endpoint.h"
#include "proto/messages.h"
#include "proto/timing_model.h"
#include "sim/event_queue.h"

namespace monatt::controller
{
class HashRing;
}

namespace monatt::core
{

/**
 * Terminal state of one attestation request. Every request reaches a
 * definitive state: a verified report (Verified/Degraded), an explicit
 * controller failure (Failed/Unreachable), or a local retransmission
 * give-up (Unreachable). Nothing hangs in Pending forever while the
 * reliability layer is enabled.
 */
enum class AttestationOutcome : std::uint8_t
{
    Pending = 0,     //!< Still in flight (or reliability disabled).
    Verified = 1,    //!< Report arrived and verified end to end.
    Degraded = 2,    //!< Verified, but some property came back Unknown.
    Unreachable = 3, //!< Service did not answer within the budget.
    Failed = 4,      //!< Controller refused (unknown VM, not placed...).
    TcbRollback = 5, //!< Verified, and the appraiser condemned the
                     //!< host's firmware as stale (rollback/replay).
};

/** Outcome plus the human-readable reason for terminal failures. */
struct AttestOutcomeRecord
{
    AttestationOutcome state = AttestationOutcome::Pending;
    std::string reason;
};

/** A report that passed end-to-end verification. */
struct VerifiedReport
{
    std::uint64_t requestId = 0;
    proto::AttestationReport report;
    std::vector<proto::SecurityProperty> properties;
    SimTime receivedAt = 0;
};

/** Outcome of a launch request. */
struct LaunchOutcome
{
    bool done = false;
    bool ok = false;
    std::string vid;
    std::string error;
};

/** Customer statistics. */
struct CustomerStats
{
    std::uint64_t reportsVerified = 0;
    std::uint64_t reportsRejected = 0;
    std::uint64_t requestRetries = 0;       //!< AttestRequest resends.
    std::uint64_t requestsUnreachable = 0;  //!< Gave up waiting.
    std::uint64_t requestsFailed = 0;       //!< Controller said no.
};

/** The customer entity. */
class Customer
{
  public:
    /**
     * `controllerRing` is the control plane's consistent-hash
     * ownership ring (non-owning, must outlive the customer): every
     * request is routed client-side to the shard owning its VM id.
     *
     * `controllerGroups` lists each shard's replica group (member ids
     * in replica-index order, index 0 = the base id the ring routes
     * to); a group of one included. The customer follows each group's
     * leader: NotLeader redirects and leader-signed replies update a
     * per-group leader hint, and the retransmission timer rotates
     * through the group members until one answers.
     */
    Customer(sim::EventQueue &eq, net::Network &network,
             net::KeyDirectory &directory, std::string id,
             std::uint64_t seed, proto::ReliabilityModel reliabilityModel,
             const controller::HashRing &controllerRing,
             std::vector<std::vector<std::string>> controllerGroups);

    const std::string &id() const { return self; }

    /** Identity public key VKcust. */
    const crypto::RsaPublicKey &identityPublic() const
    {
        return keys.pub;
    }

    /**
     * Lease a VM (nova api boot + the security-property extension of
     * §6.1). Returns the request id; poll launchOutcome() after
     * running the simulation.
     */
    std::uint64_t requestLaunch(
        const std::string &name, const std::string &imageName,
        const std::string &flavorName,
        const std::vector<proto::SecurityProperty> &properties,
        const Bytes &image, std::uint64_t imageSizeMb);

    /** Table 1: startup_attest_current(Vid, P, N). */
    std::uint64_t startupAttestCurrent(
        const std::string &vid,
        const std::vector<proto::SecurityProperty> &properties);

    /** Table 1: runtime_attest_current(Vid, P, N). */
    std::uint64_t runtimeAttestCurrent(
        const std::string &vid,
        const std::vector<proto::SecurityProperty> &properties);

    /** Table 1: runtime_attest_periodic(Vid, P, freq, N).
     * @param period Fixed period; <= 0 requests random intervals. */
    std::uint64_t runtimeAttestPeriodic(
        const std::string &vid,
        const std::vector<proto::SecurityProperty> &properties,
        SimTime period);

    /** Table 1: stop_attest_periodic(Vid, P, N). */
    std::uint64_t stopAttestPeriodic(
        const std::string &vid,
        const std::vector<proto::SecurityProperty> &properties);

    /** Launch outcome for a request id; nullptr until a response. */
    const LaunchOutcome *launchOutcome(std::uint64_t requestId) const;

    /** All verified reports, in arrival order. */
    const std::vector<VerifiedReport> &reports() const
    {
        return verifiedReports;
    }

    /** Verified reports for one request id. */
    std::vector<const VerifiedReport *> reportsFor(
        std::uint64_t requestId) const;

    /** Most recent verified report for a VM; nullptr when none. */
    const VerifiedReport *lastReportFor(const std::string &vid) const;

    /** Terminal (or Pending) outcome of an attestation request. */
    AttestOutcomeRecord outcomeFor(std::uint64_t requestId) const;

    const CustomerStats &stats() const { return counters; }

    /** Schema version this node emits (DESIGN.md §17). */
    const proto::WireContext &wireContext() const { return wire_; }
    void setWireContext(const proto::WireContext &ctx) { wire_ = ctx; }

  private:
    struct PendingAttest
    {
        std::string vid;
        Bytes nonce1;
        std::vector<proto::SecurityProperty> properties;
        bool periodic = false;
        Bytes packed;                //!< For identical retransmission.
        std::string target;     //!< Controller shard handling it.
        sim::Exchange exchange; //!< The AttestRequest's.
    };

    void handleMessage(const net::NodeId &from, const Bytes &plaintext);

    /** Pack an outgoing message at this node's schema version. */
    template <typename M>
    Bytes pack(proto::MessageKind kind, const M &msg) const
    {
        return proto::packFor(wire_, kind, msg);
    }

    proto::WireContext wire_;

    void onLaunchResponse(const Bytes &body);
    void onReportToCustomer(const net::NodeId &from, const Bytes &body);
    void onAttestFailure(const Bytes &body);
    void onNotLeader(const net::NodeId &from, const Bytes &body);
    std::uint64_t sendAttest(const std::string &vid,
                             std::vector<proto::SecurityProperty> props,
                             proto::AttestMode mode, SimTime period);

    /** Arm the request retransmission timer. */
    void scheduleRequestRetry(std::uint64_t requestId);
    void requestRetryFired(std::uint64_t requestId);

    /** Owning controller shard for a VM id (ring routing). */
    const std::string &shardFor(const std::string &vid) const;

    /** Shard handling a launch request (no vid exists yet; routed by a
     * per-request key so launches spread across shards). */
    const std::string &launchShardFor(std::uint64_t requestId,
                                      const std::string &name) const;

    /** True when `node` is a controller shard we accept replies from. */
    bool isController(const net::NodeId &node) const;

    /** Send target for a shard: the hinted leader, else the base. */
    const std::string &routeTo(const std::string &base) const;

    sim::EventQueue &events;
    std::string self;
    const controller::HashRing &ring;
    crypto::RsaKeyPair keys;
    const net::KeyDirectory &dir;
    net::SecureEndpoint endpoint;
    crypto::HmacDrbg nonceDrbg;
    /** Compiled relay-verification keys, one per controller shard. */
    crypto::RsaPublicContextCache controllerKeys;

    /** Replica groups, base id → member ids. */
    std::map<std::string, std::vector<std::string>> groups;
    /** Member id → its group's base id. */
    std::map<std::string, std::string> memberGroup;
    /** Discovered leader per group base id (absent = use the base). */
    std::map<std::string, std::string> leaderHint;
    /** Packed launch requests, kept for identical resends on
     * NotLeader redirects. */
    std::map<std::uint64_t, Bytes> pendingLaunchSends;

    proto::ReliabilityModel reliability;
    std::map<std::uint64_t, LaunchOutcome> launches;
    std::map<std::uint64_t, PendingAttest> pendingAttests;
    std::map<std::uint64_t, AttestOutcomeRecord> outcomes;
    std::vector<VerifiedReport> verifiedReports;
    std::map<std::string, std::size_t> lastReportIndex;

    std::uint64_t nextRequest = 1;
    CustomerStats counters;
};

} // namespace monatt::core

#endif // MONATT_CORE_CUSTOMER_H
