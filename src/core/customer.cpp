#include "core/customer.h"

#include <algorithm>

#include "common/logging.h"
#include "controller/hash_ring.h"
#include "proto/timing_model.h"

namespace monatt::core
{

using proto::AttestMode;
using proto::AttestRequest;
using proto::MessageKind;
using proto::pack;
using proto::ReportToCustomer;

Customer::Customer(sim::EventQueue &eq, net::Network &network,
                   net::KeyDirectory &directory, std::string id,
                   std::uint64_t seed,
                   const controller::HashRing &controllerRing,
                   std::vector<std::vector<std::string>> controllerGroups)
    : events(eq), self(std::move(id)), ring(controllerRing),
      keys(crypto::deriveKeyPair("customer-identity", self, seed, 512)),
      dir(directory),
      endpoint(network, self, keys, directory,
               crypto::seedMaterial("customer-endpoint", self, seed)),
      nonceDrbg(toBytes("customer-nonces:" + self))
{
    for (std::vector<std::string> &group : controllerGroups) {
        const std::string base = group.front();
        for (const std::string &member : group)
            memberGroup[member] = base;
        groups[base] = std::move(group);
    }

    endpoint.onMessage([this](const net::NodeId &from, const Bytes &msg) {
        if (isController(from))
            handleMessage(from, msg);
    });
}

const std::string &
Customer::shardFor(const std::string &vid) const
{
    return ring.owner(vid);
}

const std::string &
Customer::launchShardFor(std::uint64_t requestId,
                         const std::string &name) const
{
    return ring.owner("launch:" + self + ":" + std::to_string(requestId) +
                      ":" + name);
}

bool
Customer::isController(const net::NodeId &node) const
{
    return memberGroup.count(node) != 0;
}

const std::string &
Customer::routeTo(const std::string &base) const
{
    const auto it = leaderHint.find(base);
    return it == leaderHint.end() ? base : it->second;
}

std::uint64_t
Customer::requestLaunch(
    const std::string &name, const std::string &imageName,
    const std::string &flavorName,
    const std::vector<proto::SecurityProperty> &properties,
    const Bytes &image, std::uint64_t imageSizeMb)
{
    const std::uint64_t requestId = nextRequest++;
    proto::LaunchRequest req;
    req.requestId = requestId;
    req.name = name;
    req.imageName = imageName;
    req.flavorName = flavorName;
    req.properties = properties;
    req.image = image;
    req.imageSizeMb = imageSizeMb;

    launches[requestId] = LaunchOutcome{};
    const std::string &base = launchShardFor(requestId, name);
    Bytes packed = pack(MessageKind::LaunchRequest, req);
    pendingLaunchSends[requestId] = packed;
    endpoint.sendSecure(routeTo(base), std::move(packed));
    return requestId;
}

std::uint64_t
Customer::sendAttest(const std::string &vid,
                     std::vector<proto::SecurityProperty> props,
                     AttestMode mode, SimTime period)
{
    const std::uint64_t requestId = nextRequest++;
    AttestRequest req;
    req.requestId = requestId;
    req.vid = vid;
    req.properties = props;
    req.nonce1 = nonceDrbg.generate(16);
    req.mode = mode;
    req.period = period;

    Bytes packed = pack(MessageKind::AttestRequest, req);

    const std::string &target = shardFor(vid);
    PendingAttest pending;
    pending.vid = vid;
    pending.nonce1 = req.nonce1;
    pending.properties = std::move(props);
    pending.periodic = mode == AttestMode::RuntimePeriodic;
    pending.packed = packed;
    pending.target = target;
    pending.exchange.arm(events.now());
    pendingAttests[requestId] = std::move(pending);
    outcomes[requestId] = AttestOutcomeRecord{};

    endpoint.sendSecure(routeTo(target), std::move(packed));

    // Only one-shot requests retransmit: a periodic stream is kept
    // alive by its own reports, and StopPeriodic is idempotent
    // fire-and-forget with no reply to wait for.
    const bool oneShot = mode == AttestMode::StartupOneTime ||
                         mode == AttestMode::RuntimeOneTime;
    if (oneShot)
        scheduleRequestRetry(requestId);
    return requestId;
}

void
Customer::scheduleRequestRetry(std::uint64_t requestId)
{
    const auto it = pendingAttests.find(requestId);
    if (it == pendingAttests.end())
        return;
    PendingAttest &pending = it->second;
    pending.exchange.timer = events.scheduleAfter(
        pending.exchange.timeout(proto::ReliabilityModel::kCustomer),
        [this, requestId] { requestRetryFired(requestId); },
        "customer.attest.retry");
}

void
Customer::requestRetryFired(std::uint64_t requestId)
{
    const auto it = pendingAttests.find(requestId);
    if (it == pendingAttests.end())
        return;
    PendingAttest &pending = it->second;
    const std::vector<std::string> &group = groups.at(pending.target);
    std::string target = routeTo(pending.target);
    switch (pending.exchange.expire(proto::ReliabilityModel::kCustomer)) {
      case sim::Exchange::Expiry::Idle:
        return;
      case sim::Exchange::Expiry::Resend: {
        ++counters.requestRetries;
        // Rotate retransmissions through the replica group starting
        // from the hinted leader: if the hint is stale (leader died
        // without a successor yet) the resend eventually lands on
        // whichever replica wins the election, which answers — or
        // redirects via NotLeader.
        const auto start = static_cast<std::size_t>(
            std::find(group.begin(), group.end(), target) - group.begin());
        target = group[(start + static_cast<std::size_t>(
                                    pending.exchange.attempts())) %
                       group.size()];
        // Identical plaintext; the controller shard dedups on
        // (customer, request id), so at most one protocol run is
        // triggered.
        endpoint.sendSecure(target, Bytes(pending.packed));
        scheduleRequestRetry(requestId);
        return;
      }
      case sim::Exchange::Expiry::GiveUp:
        break;
    }
    ++counters.requestsUnreachable;
    outcomes[requestId] =
        AttestOutcomeRecord{AttestationOutcome::Unreachable,
                            "no response from cloud controller"};
    MONATT_LOG(Warn, "customer")
        << self << ": attestation request " << requestId
        << " unreachable after " << pending.exchange.attempts()
        << " retries";
    pendingAttests.erase(it);
    // The controller shard may have crashed and restarted: force a
    // fresh handshake before the next request instead of sealing under
    // session keys it no longer holds.
    endpoint.resetPeer(target);
}

std::uint64_t
Customer::startupAttestCurrent(
    const std::string &vid,
    const std::vector<proto::SecurityProperty> &properties)
{
    return sendAttest(vid, properties, AttestMode::StartupOneTime, 0);
}

std::uint64_t
Customer::runtimeAttestCurrent(
    const std::string &vid,
    const std::vector<proto::SecurityProperty> &properties)
{
    return sendAttest(vid, properties, AttestMode::RuntimeOneTime, 0);
}

std::uint64_t
Customer::runtimeAttestPeriodic(
    const std::string &vid,
    const std::vector<proto::SecurityProperty> &properties,
    SimTime period)
{
    return sendAttest(vid, properties, AttestMode::RuntimePeriodic,
                      period);
}

std::uint64_t
Customer::stopAttestPeriodic(
    const std::string &vid,
    const std::vector<proto::SecurityProperty> &properties)
{
    // Drop local periodic state so late reports are not accepted
    // indefinitely; the stop command races any in-flight round, which
    // is inherent to the protocol.
    for (auto it = pendingAttests.begin(); it != pendingAttests.end();) {
        if (it->second.vid == vid && it->second.periodic)
            it = pendingAttests.erase(it);
        else
            ++it;
    }
    return sendAttest(vid, properties, AttestMode::StopPeriodic, 0);
}

const LaunchOutcome *
Customer::launchOutcome(std::uint64_t requestId) const
{
    const auto it = launches.find(requestId);
    return it == launches.end() ? nullptr : &it->second;
}

std::vector<const VerifiedReport *>
Customer::reportsFor(std::uint64_t requestId) const
{
    std::vector<const VerifiedReport *> out;
    for (const VerifiedReport &r : verifiedReports) {
        if (r.requestId == requestId)
            out.push_back(&r);
    }
    return out;
}

const VerifiedReport *
Customer::lastReportFor(const std::string &vid) const
{
    const auto it = lastReportIndex.find(vid);
    return it == lastReportIndex.end() ? nullptr
                                       : &verifiedReports[it->second];
}

AttestOutcomeRecord
Customer::outcomeFor(std::uint64_t requestId) const
{
    const auto it = outcomes.find(requestId);
    return it == outcomes.end() ? AttestOutcomeRecord{} : it->second;
}

void
Customer::handleMessage(const net::NodeId &from, const Bytes &plaintext)
{
    auto unpacked = proto::unpackMessage(plaintext);
    if (!unpacked)
        return;
    const proto::MessageKind kind = unpacked.value().kind;
    const Bytes &body = unpacked.value().body;
    // Substantive replies only ever come from a group's leader (the
    // output gate holds them back on every other replica), so any of
    // them is an authenticated leader sighting.
    if (kind != MessageKind::NotLeader)
        leaderHint[memberGroup.at(from)] = from;
    switch (kind) {
      case MessageKind::LaunchResponse:
        onLaunchResponse(body);
        break;
      case MessageKind::ReportToCustomer:
        onReportToCustomer(from, body);
        break;
      case MessageKind::AttestFailure:
        onAttestFailure(body);
        break;
      case MessageKind::NotLeader:
        onNotLeader(from, body);
        break;
      default:
        break;
    }
}

void
Customer::onNotLeader(const net::NodeId &from, const Bytes &body)
{
    auto msgR = proto::decode<proto::NotLeader>(body);
    if (!msgR)
        return;
    const proto::NotLeader msg = msgR.take();
    const auto git = memberGroup.find(from);
    if (git == memberGroup.end())
        return;
    const std::string &base = git->second;

    // Adopt the sender's leader hint when it names a member of the
    // same group; an empty or foreign hint just clears a stale one.
    if (!msg.leaderId.empty() && memberGroup.count(msg.leaderId) != 0 &&
        memberGroup.at(msg.leaderId) == base)
        leaderHint[base] = msg.leaderId;
    else if (routeTo(base) == from)
        leaderHint.erase(base);

    // Resend immediately only when the redirect actually changed the
    // route (loop guard — a hintless group waits for the retry timer).
    const std::string &target = routeTo(base);
    if (target == from)
        return;
    if (msg.isLaunch) {
        const auto it = pendingLaunchSends.find(msg.requestId);
        if (it != pendingLaunchSends.end())
            endpoint.sendSecure(target, Bytes(it->second));
        return;
    }
    const auto it = pendingAttests.find(msg.requestId);
    if (it != pendingAttests.end())
        endpoint.sendSecure(target, Bytes(it->second.packed));
}

void
Customer::onAttestFailure(const Bytes &body)
{
    // Authenticated by the secure channel: handleMessage only accepts
    // traffic from the controller. A failure is a definitive verdict,
    // never a verified health statement.
    auto failR = proto::decode<proto::AttestFailure>(body);
    if (!failR ||
        (failR.value().outcome != proto::FailureOutcome::Unreachable &&
         failR.value().outcome != proto::FailureOutcome::Failed))
        return;
    const proto::AttestFailure fail = failR.take();
    const auto it = pendingAttests.find(fail.requestId);
    if (it == pendingAttests.end())
        return; // Already terminal (late duplicate).
    events.cancel(it->second.exchange.timer);
    pendingAttests.erase(it);

    const bool unreachable =
        fail.outcome == proto::FailureOutcome::Unreachable;
    if (unreachable)
        ++counters.requestsUnreachable;
    else
        ++counters.requestsFailed;
    outcomes[fail.requestId] = AttestOutcomeRecord{
        unreachable ? AttestationOutcome::Unreachable
                    : AttestationOutcome::Failed,
        fail.reason};
    MONATT_LOG(Warn, "customer")
        << self << ": attestation " << fail.requestId
        << " failed: " << fail.reason;
}

void
Customer::onLaunchResponse(const Bytes &body)
{
    auto respR = proto::decode<proto::LaunchResponse>(body);
    if (!respR)
        return;
    const proto::LaunchResponse resp = respR.take();
    pendingLaunchSends.erase(resp.requestId);
    auto it = launches.find(resp.requestId);
    if (it == launches.end())
        return;
    it->second.done = true;
    it->second.ok = resp.ok;
    it->second.vid = resp.vid;
    it->second.error = resp.error;
}

void
Customer::onReportToCustomer(const net::NodeId &from, const Bytes &body)
{
    auto msgR = proto::decode<ReportToCustomer>(body);
    if (!msgR) {
        ++counters.reportsRejected;
        return;
    }
    const ReportToCustomer msg = msgR.take();

    const auto it = pendingAttests.find(msg.requestId);
    if (it == pendingAttests.end()) {
        ++counters.reportsRejected;
        return;
    }
    const PendingAttest &pending = it->second;

    // End-to-end verification: the signature of the controller shard
    // this request was routed to, quote, nonce. The signer is whichever
    // replica of that shard currently leads — require group
    // membership, then verify under the sender's key.
    if (memberGroup.at(from) != pending.target) {
        ++counters.reportsRejected;
        return;
    }
    auto ccKey = dir.lookup(from);
    const Bytes expectedQ1 = ReportToCustomer::quoteInput(
        msg.vid, msg.properties, msg.report, msg.nonce1);
    if (!ccKey ||
        !crypto::rsaVerify(controllerKeys.get(from, ccKey.value()),
                           msg.signedPortion(), msg.signature) ||
        !constantTimeEqual(expectedQ1, msg.quote1) ||
        !constantTimeEqual(msg.nonce1, pending.nonce1) ||
        msg.vid != pending.vid) {
        ++counters.reportsRejected;
        MONATT_LOG(Warn, "customer")
            << self << ": rejected unverifiable report for " << msg.vid;
        return;
    }

    ++counters.reportsVerified;
    VerifiedReport verified;
    verified.requestId = msg.requestId;
    verified.report = msg.report;
    verified.properties = msg.properties;
    verified.receivedAt = events.now();
    verifiedReports.push_back(std::move(verified));
    lastReportIndex[msg.vid] = verifiedReports.size() - 1;

    events.cancel(it->second.exchange.timer);
    bool degraded = false;
    bool rollback = false;
    for (const proto::PropertyResult &pr : msg.report.results) {
        degraded |= pr.status == proto::HealthStatus::Unknown;
        rollback |= pr.status == proto::HealthStatus::TcbRollback;
    }
    // A rollback verdict outranks Degraded: the report verified end to
    // end and the appraiser affirmatively condemned the host firmware.
    outcomes[msg.requestId] = AttestOutcomeRecord{
        rollback    ? AttestationOutcome::TcbRollback
        : degraded  ? AttestationOutcome::Degraded
                    : AttestationOutcome::Verified,
        {}};

    if (!pending.periodic)
        pendingAttests.erase(it);
}

} // namespace monatt::core
