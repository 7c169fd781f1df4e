#include "controller/cloud_controller.h"

#include <algorithm>

#include "common/logging.h"
#include "controller/hash_ring.h"

namespace monatt::controller
{

using proto::AttestForward;
using proto::AttestMode;
using proto::AttestRequest;
using proto::MessageKind;
using proto::pack;
using proto::ReportToController;
using proto::ReportToCustomer;

namespace
{

/** Placements tried before a launch fails (§5.1 reschedules). */
constexpr int kMaxLaunchAttempts = 3;

/** §5.2 #2: after suspending a VM the controller "can initiate further
 * checking and also continue to attest the platform", resuming the VM
 * once its health recovers. Interval between re-checks. */
constexpr SimTime kSuspendRecheckPeriod = seconds(30);

} // namespace

std::string
responsePolicyName(ResponsePolicy p)
{
    switch (p) {
      case ResponsePolicy::None:
        return "none";
      case ResponsePolicy::Terminate:
        return "termination";
      case ResponsePolicy::Suspend:
        return "suspension";
      case ResponsePolicy::Migrate:
        return "migration";
    }
    return "unknown";
}

CloudController::CloudController(sim::EventQueue &eq,
                                 net::Network &network,
                                 net::KeyDirectory &directory,
                                 CloudControllerConfig config,
                                 std::uint64_t seed)
    : events(eq), cfg(std::move(config)),
      keys(crypto::deriveKeyPair("cc-identity", cfg.id, seed,
                                 cfg.identityKeyBits)),
      signCtx(keys.priv), dir(directory),
      endpoint(network, cfg.id, keys, directory,
               crypto::seedMaterial("cc-endpoint", cfg.id, seed)),
      rng(seed ^ 0xcc), relayCache(cfg.relayCacheCapacity),
      log(cfg.id, cfg.checkpointPolicy,
          [this] { return snapshotState(); },
          [this](const sim::JournalRecord &rec) { applyJournalRecord(rec); }),
      repl(cfg.id, cfg.groupIds, cfg.replicaIndex == 0, log, *this)
{
    endpoint.onMessage([this](const net::NodeId &from, const Bytes &msg) {
        handleMessage(from, msg);
    });
    repl.start();
}

void
CloudController::setResponsePolicy(const std::string &vid,
                                   ResponsePolicy policy)
{
    policies[vid] = policy;
    journalPolicy(vid);
    commitJournal();
}

void
CloudController::addFlavor(const std::string &name, std::uint32_t vcpus,
                           std::uint64_t ramMb, std::uint64_t diskGb)
{
    flavors[name] = FlavorSpec{vcpus, ramMb, diskGb};
}

void
CloudController::assignAttestationCluster(const std::string &serverId,
                                          const std::string &attestorId)
{
    clusters[serverId] = attestorId;
}

const std::string &
CloudController::attestorFor(const std::string &serverId) const
{
    const auto it = clusters.find(serverId);
    return it == clusters.end() ? cfg.attestorIds.front() : it->second;
}

void
CloudController::handleMessage(const net::NodeId &from,
                               const Bytes &plaintext)
{
    auto unpacked = proto::unpackMessage(plaintext);
    if (!unpacked)
        return;
    const proto::MessageKind kind = unpacked.value().kind;
    const Bytes &body = unpacked.value().body;
    // Non-leaders are passive: customer requests get a NotLeader
    // redirect, protocol traffic for the leader is dropped (the
    // sender's retransmission reaches the leader), and only the
    // replication/election messages go to the log.
    const bool passive = !repl.leading();
    switch (kind) {
      case MessageKind::LaunchRequest:
        if (passive) {
            auto req = proto::decode<proto::LaunchRequest>(body);
            if (req)
                repl.redirect(from, req.value().requestId, true);
        } else {
            onLaunchRequest(from, body);
        }
        break;
      case MessageKind::AttestRequest:
        if (passive) {
            auto req = proto::decode<AttestRequest>(body);
            if (req)
                repl.redirect(from, req.value().requestId, false);
        } else {
            onAttestRequest(from, body);
        }
        break;
      case MessageKind::LaunchVmAck:
        if (!passive)
            onLaunchVmAck(from, body);
        break;
      case MessageKind::ReportToController:
        if (!passive && isKnownAttestor(from))
            onReportToController(body);
        break;
      case MessageKind::TerminateVmAck:
      case MessageKind::SuspendVmAck:
      case MessageKind::ResumeVmAck:
      case MessageKind::MigrateOutAck:
        if (!passive)
            onCommandAck(kind, body);
        break;
      default:
        if (!repl.receive(from, kind, body, events.now())) {
            MONATT_LOG(Warn, "cc") << "unexpected message from " << from;
        }
        break;
    }
    // WAL rule: every mutation the handlers above made is fsynced
    // before the event ends — crashes land between events, so no
    // externally visible state is ever lost.
    commitJournal();
}

std::string
CloudController::allocateVid()
{
    for (;;) {
        std::string vid = "vm-" + std::to_string(nextVmNumber++);
        // Ring ownership is by the shard's *base* id: every replica of
        // a group allocates from the same partition of the vid space.
        if (cfg.ring->owner(vid) == groupId())
            return vid;
    }
}

std::uint64_t
CloudController::makeAttestId(std::uint64_t counter) const
{
    return (static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(cfg.shardIndex))
            << 48) |
           counter;
}

SimTime
CloudController::forwardBudget(const AttestContext &ctx) const
{
    return cfg.timing.forwardBudget(proto::measuresWindow(ctx.properties));
}

SimTime
CloudController::serviceDelay(SimTime cost)
{
    const SimTime start = std::max(events.now(), busyUntil);
    busyUntil = start + cost;
    return busyUntil - events.now();
}

void
CloudController::onLaunchRequest(const net::NodeId &from,
                                 const Bytes &body)
{
    auto reqR = proto::decode<proto::LaunchRequest>(body);
    if (!reqR)
        return;
    const proto::LaunchRequest req = reqR.take();
    ++counters.launchesRequested;

    const auto flavorIt = flavors.find(req.flavorName);
    if (flavorIt == flavors.end()) {
        proto::LaunchResponse resp;
        resp.requestId = req.requestId;
        resp.ok = false;
        resp.error = "unknown flavor " + req.flavorName;
        repl.output(from, pack(MessageKind::LaunchResponse, resp));
        return;
    }

    const std::string vid = allocateVid();

    VmRecord rec;
    rec.vid = vid;
    rec.name = req.name;
    rec.customer = from;
    rec.imageName = req.imageName;
    rec.flavorName = req.flavorName;
    rec.imageSizeMb = req.imageSizeMb;
    rec.image = req.image;
    rec.properties = req.properties;
    rec.vcpus = flavorIt->second.vcpus;
    rec.ramMb = flavorIt->second.ramMb;
    rec.diskGb = flavorIt->second.diskGb;
    rec.status = VmStatus::Scheduling;
    db.addVm(std::move(rec));

    PendingLaunch launch;
    launch.vid = vid;
    launch.customerRequestId = req.requestId;
    launch.customer = from;
    launches[vid] = std::move(launch);
    journalMeta();
    journalVm(vid);
    journalLaunch(vid);

    runSchedulingStage(vid);
}

void
CloudController::runSchedulingStage(const std::string &vid)
{
    VmRecord *rec = db.vm(vid);
    if (!rec)
        return;
    rec->status = VmStatus::Scheduling;
    rec->launchTimer.beginStage("scheduling", events.now());
    ++rec->launchAttempts;
    journalVm(vid);

    const SimTime cost =
        cfg.timing.schedulingBase +
        cfg.timing.schedulingPerServer *
            static_cast<SimTime>(db.serverIds().size());

    events.scheduleAfter(cost, [this, vid, eraNow = log.era()] {
        if (log.stale(eraNow))
            return;
        VmRecord *rec = db.vm(vid);
        auto launchIt = launches.find(vid);
        if (!rec || launchIt == launches.end())
            return;

        PlacementRequirements req;
        req.ramMb = rec->ramMb;
        req.diskGb = rec->diskGb;
        req.properties = rec->properties;
        const auto candidates = PolicyValidationModule::qualifiedServers(
            db, req, launchIt->second.excludedServers);
        if (candidates.empty()) {
            finishLaunch(vid, false, "no qualified server available");
            commitJournal();
            return;
        }
        rec->serverId = candidates.front();
        db.allocate(rec->serverId, rec->ramMb, rec->diskGb);

        // Networking, then block device mapping, then spawn.
        rec->status = VmStatus::Networking;
        rec->launchTimer.beginStage("networking", events.now());
        journalVm(vid);
        journalServer(rec->serverId);
        commitJournal();
        events.scheduleAfter(cfg.timing.networking,
                             [this, vid, eraNow] {
            if (log.stale(eraNow))
                return;
            VmRecord *rec = db.vm(vid);
            if (!rec)
                return;
            rec->status = VmStatus::Mapping;
            rec->launchTimer.beginStage("mapping", events.now());
            journalVm(vid);
            commitJournal();
            events.scheduleAfter(cfg.timing.mappingTime(rec->diskGb),
                                 [this, vid, eraNow] {
                                     if (log.stale(eraNow))
                                         return;
                                     startSpawn(vid);
                                 });
        });
    }, "cc.scheduling");
}

void
CloudController::startSpawn(const std::string &vid)
{
    VmRecord *rec = db.vm(vid);
    if (!rec)
        return;
    rec->status = VmStatus::Spawning;
    rec->launchTimer.beginStage("spawning", events.now());
    journalVm(vid);

    proto::LaunchVm cmd;
    cmd.vid = vid;
    cmd.name = rec->name;
    cmd.numVcpus = rec->vcpus;
    cmd.ramMb = rec->ramMb;
    cmd.diskGb = rec->diskGb;
    cmd.imageSizeMb = rec->imageSizeMb;
    cmd.image = rec->image;
    // The image itself is staged by the server from the image store
    // (charged inside TimingModel::spawnTime); the command is small.
    repl.output(rec->serverId, pack(MessageKind::LaunchVm, cmd));
    // Commit after the send so the staged LaunchVm is gated on this
    // handler's own journal records (startSpawn runs from a timer, so
    // no enclosing handler commits for it).
    commitJournal();
}

void
CloudController::onLaunchVmAck(const net::NodeId &from, const Bytes &body)
{
    auto ackR = proto::decode<proto::LaunchVmAck>(body);
    if (!ackR)
        return;
    const proto::LaunchVmAck ack = ackR.take();
    VmRecord *rec = db.vm(ack.vid);
    // The status guard makes duplicate acks harmless (a late copy of
    // an ack already acted on finds the VM past Spawning).
    if (!rec || rec->serverId != from ||
        rec->status != VmStatus::Spawning)
        return;

    if (!ack.ok) {
        db.release(rec->serverId, rec->ramMb, rec->diskGb);
        journalServer(rec->serverId);
        rescheduleLaunch(ack.vid, "spawn failed: " + ack.error);
        return;
    }
    startStartupAttestation(ack.vid);
}

void
CloudController::startStartupAttestation(const std::string &vid)
{
    VmRecord *rec = db.vm(vid);
    if (!rec)
        return;
    rec->status = VmStatus::Attesting;
    rec->launchTimer.beginStage("attestation", events.now());
    journalVm(vid);

    AttestContext ctx;
    ctx.kind = AttestKind::StartupLaunch;
    ctx.vid = vid;
    ctx.properties = {proto::SecurityProperty::StartupIntegrity};
    ctx.mode = AttestMode::StartupOneTime;
    forwardAttestation(std::move(ctx));
}

std::uint64_t
CloudController::forwardAttestation(AttestContext ctx)
{
    const VmRecord *rec = db.vm(ctx.vid);
    if (!rec || rec->serverId.empty()) {
        // No hang: customers get a definitive failure even when the
        // VM vanished or was never placed.
        if (ctx.kind == AttestKind::CustomerRequest) {
            sendAttestFailure(ctx.customer, ctx.customerRequestId,
                              ctx.vid, proto::FailureOutcome::Failed,
                              "vm not placed");
        }
        return 0;
    }

    const std::uint64_t attestId = makeAttestId(nextAttestId++);
    ctx.nonce2 = rng.nextBytes(16);
    ctx.forwardedAt = events.now();
    ctx.forward.arm(ctx.forwardedAt, forwardBudget(ctx));
    ctx.periodic = ctx.mode == AttestMode::RuntimePeriodic;
    ctx.serverId = rec->serverId;
    ctx.attestorId = attestorFor(rec->serverId);
    const bool expectReply = ctx.mode != AttestMode::StopPeriodic;
    attests[attestId] = std::move(ctx);
    journalMeta();
    journalAttest(attestId);
    transmitForward(attestId);
    // StopPeriodic is unacknowledged fire-and-forget (idempotent at
    // the AS); everything else is retried until a report arrives.
    if (expectReply)
        scheduleForwardRetry(attestId);
    return attestId;
}

void
CloudController::transmitForward(std::uint64_t attestId)
{
    const auto it = attests.find(attestId);
    if (it == attests.end())
        return;
    const AttestContext &ctx = it->second;

    // Rebuilt from the context with the same nonce2 on every attempt,
    // so a report answering any copy (or any failover target) binds to
    // this attestation.
    AttestForward fwd;
    fwd.requestId = attestId;
    fwd.vid = ctx.vid;
    fwd.serverId = ctx.serverId;
    fwd.properties = ctx.properties;
    fwd.nonce2 = ctx.nonce2;
    fwd.mode = ctx.mode;
    fwd.period = ctx.period;
    repl.output(ctx.attestorId, pack(MessageKind::AttestForward, fwd));
}

void
CloudController::scheduleForwardRetry(std::uint64_t attestId)
{
    const auto it = attests.find(attestId);
    if (it == attests.end())
        return;
    AttestContext &ctx = it->second;
    ctx.forward.timer = events.scheduleAfter(
        ctx.forward.timeout(proto::ReliabilityModel::kForward,
                            &pathRtt[{ctx.attestorId, ctx.serverId}]),
        [this, attestId, eraNow = log.era()] {
            if (log.stale(eraNow))
                return;
            forwardRetryFired(attestId);
            commitJournal();
        },
        "cc.forward.retry");
}

void
CloudController::forwardRetryFired(std::uint64_t attestId)
{
    const auto it = attests.find(attestId);
    if (it == attests.end())
        return;
    AttestContext &ctx = it->second;
    switch (ctx.forward.expire(proto::ReliabilityModel::kForward,
                               &pathRtt[{ctx.attestorId, ctx.serverId}])) {
      case sim::Exchange::Expiry::Idle:
        return;
      case sim::Exchange::Expiry::Resend:
        ++counters.forwardRetries;
        journalAttest(attestId);
        transmitForward(attestId);
        scheduleForwardRetry(attestId);
        return;
      case sim::Exchange::Expiry::GiveUp:
        break;
    }

    // Retry budget exhausted: strike the attestor, then fail the
    // request over to another AS when one is available. Drop the
    // channel too — if the AS crashed and restarted, records sealed
    // under the old session keys would be rejected forever, so the
    // next contact must re-handshake.
    AsHealth &health = asHealth[ctx.attestorId];
    ++health.strikes;
    if (health.strikes >= proto::ReliabilityModel::kSuspectThreshold)
        health.suspect = true;
    journalAsHealth(ctx.attestorId);
    endpoint.resetPeer(ctx.attestorId);

    const std::string alt = alternativeAttestor(ctx.attestorId);
    if (ctx.failovers < proto::ReliabilityModel::kFailoverLimit &&
        !alt.empty()) {
        MONATT_LOG(Warn, "cc")
            << "attestation " << attestId << " failing over from "
            << ctx.attestorId << " to " << alt;
        ++counters.failovers;
        ++ctx.failovers;
        ctx.forward.restart();
        ctx.attestorId = alt;
        journalAttest(attestId);
        transmitForward(attestId);
        scheduleForwardRetry(attestId);
        return;
    }
    giveUpAttestation(attestId);
}

void
CloudController::giveUpAttestation(std::uint64_t attestId)
{
    const auto it = attests.find(attestId);
    if (it == attests.end())
        return;
    const AttestContext ctx = std::move(it->second);
    attests.erase(it);
    journalAttest(attestId);
    ++counters.attestationsUnreachable;
    MONATT_LOG(Warn, "cc")
        << "attestation " << attestId << " for " << ctx.vid
        << " unreachable after retries and failover";

    switch (ctx.kind) {
      case AttestKind::CustomerRequest:
        sendAttestFailure(ctx.customer, ctx.customerRequestId, ctx.vid,
                          proto::FailureOutcome::Unreachable,
                          "attestation service unreachable");
        break;
      case AttestKind::StartupLaunch:
        finishLaunch(ctx.vid, false, "startup attestation unreachable");
        break;
      case AttestKind::SuspendRecheck:
        // Keep the VM suspended; re-check once the period elapses
        // again (the attestation plane may have recovered by then).
        scheduleSuspendRecheck(ctx.vid, ctx.customerRequestId);
        break;
    }
}

void
CloudController::sendAttestFailure(const net::NodeId &customer,
                                   std::uint64_t requestId,
                                   const std::string &vid,
                                   proto::FailureOutcome outcome,
                                   const std::string &reason)
{
    proto::AttestFailure failure;
    failure.requestId = requestId;
    failure.vid = vid;
    failure.outcome = outcome;
    failure.reason = reason;
    Bytes packed = pack(MessageKind::AttestFailure, failure);
    rememberRelay(CustomerKey{customer, requestId}, Bytes(packed));
    repl.output(customer, std::move(packed));
}

bool
CloudController::isKnownAttestor(const net::NodeId &node) const
{
    for (const std::string &id : cfg.attestorIds)
        if (node == id)
            return true;
    for (const auto &[server, attestor] : clusters)
        if (node == attestor)
            return true;
    return false;
}

std::string
CloudController::alternativeAttestor(const std::string &current) const
{
    const std::vector<std::string> &all = cfg.attestorIds;
    // Prefer an AS not currently suspected of being down...
    for (const std::string &id : all) {
        if (id == current)
            continue;
        const auto it = asHealth.find(id);
        if (it == asHealth.end() || !it->second.suspect)
            return id;
    }
    // ...but a suspect AS beats giving up outright.
    for (const std::string &id : all)
        if (id != current)
            return id;
    return {};
}

void
CloudController::rememberRelay(const CustomerKey &key, Bytes packed)
{
    customerInFlight.erase(key);
    if (const Bytes *stored = relayCache.insert(key, std::move(packed)))
        log.append(JournalType::RelayRemember,
                   RelayRecord{key.first, key.second, *stored});
}

void
CloudController::onAttestRequest(const net::NodeId &from,
                                 const Bytes &body)
{
    auto reqR = proto::decode<AttestRequest>(body);
    if (!reqR)
        return;
    const AttestRequest req = reqR.take();

    // Receive-side dedup: swallow retransmissions of a request still
    // in flight; answer completed ones from the relay cache without
    // re-running the protocol or re-signing anything.
    const CustomerKey key{from, req.requestId};
    if (customerInFlight.count(key)) {
        ++counters.duplicateAttestRequests;
        return;
    }
    if (const Bytes *cached = relayCache.find(key)) {
        ++counters.duplicateAttestRequests;
        repl.output(from, Bytes(*cached));
        return;
    }

    const VmRecord *rec = db.vm(req.vid);
    if (!rec || rec->customer != from) {
        MONATT_LOG(Warn, "cc")
            << "attestation request for unknown/foreign VM " << req.vid;
        // Identical definitive answer for "no such VM" and "someone
        // else's VM": the requester learns nothing about other
        // tenants, but no longer hangs either.
        sendAttestFailure(from, req.requestId, req.vid,
                          proto::FailureOutcome::Failed, "unknown vm");
        return;
    }

    // StopPeriodic never produces a reply that would clear the mark.
    if (req.mode != AttestMode::StopPeriodic)
        customerInFlight.insert(key);
    events.scheduleAfter(serviceDelay(cfg.timing.controllerProcessing),
                         [this, req, from, key, eraNow = log.era()] {
        if (log.stale(eraNow))
            return;
        const VmRecord *rec = db.vm(req.vid);
        if (!rec) {
            customerInFlight.erase(key);
            sendAttestFailure(from, req.requestId, req.vid,
                              proto::FailureOutcome::Failed,
                              "unknown vm");
            commitJournal();
            return;
        }

        AttestContext ctx;
        ctx.kind = AttestKind::CustomerRequest;
        ctx.vid = req.vid;
        ctx.customer = from;
        ctx.customerRequestId = req.requestId;
        ctx.nonce1 = req.nonce1;
        ctx.properties = req.properties;
        ctx.mode = req.mode;
        ctx.period = req.period;
        forwardAttestation(std::move(ctx));
        commitJournal();
    }, "cc.attest.forward");
}

void
CloudController::onReportToController(const Bytes &body)
{
    auto msgR = proto::decode<ReportToController>(body);
    if (!msgR) {
        ++counters.reportVerificationFailures;
        return;
    }
    const ReportToController msg = msgR.take();
    const auto it = attests.find(msg.requestId);
    if (it == attests.end()) {
        ++counters.reportVerificationFailures;
        return;
    }
    const AttestContext ctx = it->second;

    // Verify the Attestation Server's signature and quote Q2 against
    // the attestor this request currently targets (tracked per context
    // so failover re-binds the signer), else the cluster attestor
    // responsible for the VM's server.
    const std::string &attestor =
        ctx.attestorId.empty() ? attestorFor(msg.serverId) : ctx.attestorId;
    auto asKey = dir.lookup(attestor);
    const Bytes expectedQ2 = ReportToController::quoteInput(
        msg.vid, msg.serverId, msg.properties, msg.report, msg.nonce2);
    const bool ok =
        asKey &&
        crypto::rsaVerify(attestorKeys.get(attestor, asKey.value()),
                          msg.signedPortion(), msg.signature) &&
        constantTimeEqual(expectedQ2, msg.quote2) &&
        constantTimeEqual(msg.nonce2, ctx.nonce2) && msg.vid == ctx.vid;
    if (!ok) {
        ++counters.reportVerificationFailures;
        MONATT_LOG(Warn, "cc") << "report verification failed for "
                               << msg.vid;
        return;
    }

    AttestContext &stored = it->second;
    events.cancel(stored.forward.timer);
    // The first reply feeds this path's adaptive forward RTO, unless
    // the exchange was resent or failed over (Karn) or re-armed after a
    // crash (its send time spans the outage).
    stored.forward.reply(
        events.now(), stored.recovered
                          ? nullptr
                          : &pathRtt[{stored.attestorId, stored.serverId}]);
    stored.acked = true;
    if (!stored.periodic)
        attests.erase(it);
    journalAttest(msg.requestId);
    // A verified report clears the attestor's strike record.
    if (!ctx.attestorId.empty()) {
        asHealth[ctx.attestorId] = AsHealth{};
        journalAsHealth(ctx.attestorId);
    }

    events.scheduleAfter(serviceDelay(cfg.timing.controllerProcessing),
                         [this, ctx, msg, eraNow = log.era()] {
        if (log.stale(eraNow))
            return;
        if (ctx.kind == AttestKind::StartupLaunch)
            handleStartupReport(ctx, msg);
        else if (ctx.kind == AttestKind::SuspendRecheck)
            handleRecheckReport(ctx, msg);
        else
            handleCustomerReport(ctx, msg);
        commitJournal();
    }, "cc.report");
}

void
CloudController::handleStartupReport(const AttestContext &ctx,
                                     const ReportToController &msg)
{
    VmRecord *rec = db.vm(ctx.vid);
    if (!rec)
        return;

    // A rollback verdict condemns the *host*, not the image: evict it
    // from scheduling before picking the replacement server below.
    bool rollback = false;
    for (const proto::PropertyResult &pr : msg.report.results)
        rollback |= pr.status == proto::HealthStatus::TcbRollback;
    if (rollback) {
        ++counters.tcbRollbackReports;
        quarantineServer(rec->serverId,
                         "tcb rollback during startup attestation");
    }

    const proto::PropertyResult *integrity =
        msg.report.find(proto::SecurityProperty::StartupIntegrity);
    if (integrity && integrity->status == proto::HealthStatus::Healthy) {
        finishLaunch(ctx.vid, true, {});
        return;
    }

    const std::string detail = integrity ? integrity->detail
                                         : "no integrity result";
    if (detail.find("image") != std::string::npos) {
        // §5.1: compromised image — reject the launch.
        proto::VmCommand cmd;
        cmd.vid = ctx.vid;
        repl.output(rec->serverId, pack(MessageKind::TerminateVm, cmd));
        db.release(rec->serverId, rec->ramMb, rec->diskGb);
        journalServer(rec->serverId);
        ++counters.launchesRejected;
        finishLaunch(ctx.vid, false, "vm image integrity check failed");
    } else {
        // §5.1: compromised platform — select another server.
        proto::VmCommand cmd;
        cmd.vid = ctx.vid;
        repl.output(rec->serverId, pack(MessageKind::TerminateVm, cmd));
        db.release(rec->serverId, rec->ramMb, rec->diskGb);
        journalServer(rec->serverId);
        rescheduleLaunch(ctx.vid, detail);
    }
}

void
CloudController::rescheduleLaunch(const std::string &vid,
                                  const std::string &reason)
{
    VmRecord *rec = db.vm(vid);
    auto launchIt = launches.find(vid);
    if (!rec || launchIt == launches.end())
        return;

    if (rec->launchAttempts >= kMaxLaunchAttempts) {
        finishLaunch(vid, false,
                     "launch failed after retries: " + reason);
        return;
    }
    ++counters.launchesRescheduled;
    launchIt->second.excludedServers.insert(rec->serverId);
    rec->serverId.clear();
    journalLaunch(vid);
    MONATT_LOG(Info, "cc") << "rescheduling " << vid << ": " << reason;
    runSchedulingStage(vid);
}

void
CloudController::finishLaunch(const std::string &vid, bool ok,
                              const std::string &error)
{
    VmRecord *rec = db.vm(vid);
    auto launchIt = launches.find(vid);
    if (!rec || launchIt == launches.end())
        return;

    rec->launchTimer.endStage(events.now());
    rec->status = ok ? VmStatus::Running : VmStatus::Failed;
    if (ok) {
        rec->launchedAt = events.now();
        ++counters.launchesSucceeded;
    }

    proto::LaunchResponse resp;
    resp.requestId = launchIt->second.customerRequestId;
    resp.vid = vid;
    resp.ok = ok;
    resp.error = error;
    repl.output(launchIt->second.customer,
                pack(MessageKind::LaunchResponse, resp));
    launches.erase(launchIt);
    journalVm(vid);
    journalLaunch(vid);
}

void
CloudController::handleCustomerReport(const AttestContext &ctx,
                                      const ReportToController &msg)
{
    ReportToCustomer out;
    out.requestId = ctx.customerRequestId;
    out.vid = ctx.vid;
    out.properties = ctx.properties;
    out.report = msg.report;
    out.nonce1 = ctx.nonce1;
    out.quote1 = ReportToCustomer::quoteInput(ctx.vid, ctx.properties,
                                              msg.report, ctx.nonce1);

    out.signature = crypto::rsaSign(signCtx, out.signedPortion());
    ++counters.reportsRelayed;
    // One-time replies feed the dedup cache; periodic stream reports
    // share the customer request id and are never cached.
    Bytes packed = pack(MessageKind::ReportToCustomer, out);
    const CustomerKey key{ctx.customer, out.requestId};
    if (!ctx.periodic)
        rememberRelay(key, Bytes(packed));
    else
        customerInFlight.erase(key);
    repl.output(ctx.customer, std::move(packed));

    // nova response: act on a negative report.
    bool bad = false;
    bool rollback = false;
    for (const proto::PropertyResult &pr : msg.report.results) {
        bad |= pr.status == proto::HealthStatus::Compromised;
        rollback |= pr.status == proto::HealthStatus::TcbRollback;
    }
    if (rollback) {
        // Minimum-TCB response (§5): the *host's* firmware is stale,
        // so quarantine it fleet-wide first (it must not be anyone's
        // migration target), then force-migrate the affected VM off
        // it regardless of the customer's per-VM response policy.
        ++counters.tcbRollbackReports;
        quarantineServer(msg.serverId.empty() ? ctx.serverId
                                              : msg.serverId,
                         "tcb rollback attested");
        triggerResponse(ctx.vid, ctx.forwardedAt, "tcb rollback",
                        ctx.properties, /*forceMigrate=*/true);
    } else if (bad) {
        triggerResponse(ctx.vid, ctx.forwardedAt, "negative attestation",
                        ctx.properties);
    }
}

void
CloudController::quarantineServer(const std::string &serverId,
                                  const std::string &why)
{
    ServerRecord *srv = db.server(serverId);
    if (!srv || srv->quarantined)
        return;
    srv->quarantined = true;
    ++counters.serversQuarantined;
    journalServer(serverId);
    MONATT_LOG(Warn, "cc") << "quarantining " << serverId << ": " << why;
}

void
CloudController::triggerResponse(
    const std::string &vid, SimTime attestStart, const std::string &why,
    const std::vector<proto::SecurityProperty> &triggerProperties,
    bool forceMigrate)
{
    const auto polIt = policies.find(vid);
    ResponsePolicy policy =
        polIt == policies.end() ? ResponsePolicy::None : polIt->second;
    if (forceMigrate)
        policy = ResponsePolicy::Migrate;
    if (policy == ResponsePolicy::None)
        return;
    if (outstandingResponses.count(vid))
        return; // A response is already in flight for this VM.

    VmRecord *rec = db.vm(vid);
    if (!rec || rec->status != VmStatus::Running)
        return;

    ++counters.responsesTriggered;
    ResponseRecord log;
    log.vid = vid;
    log.action = policy;
    log.attestStart = attestStart;
    log.reportAt = events.now();
    log.detail = why;
    log.triggerProperties = triggerProperties;
    responses.push_back(log);
    const std::size_t logIndex = responses.size() - 1;
    outstandingResponses[vid] = logIndex;
    journalResponse(logIndex);

    proto::VmCommand cmd;
    cmd.vid = vid;
    switch (policy) {
      case ResponsePolicy::Terminate:
        repl.output(rec->serverId, pack(MessageKind::TerminateVm, cmd));
        break;
      case ResponsePolicy::Suspend:
        rec->status = VmStatus::Suspended;
        journalVm(vid);
        repl.output(rec->serverId, pack(MessageKind::SuspendVm, cmd));
        break;
      case ResponsePolicy::Migrate:
        executeMigration(vid, logIndex);
        break;
      case ResponsePolicy::None:
        break;
    }
}

void
CloudController::executeMigration(const std::string &vid,
                                  std::size_t logIndex)
{
    VmRecord *rec = db.vm(vid);
    if (!rec)
        return;

    PlacementRequirements req;
    req.ramMb = rec->ramMb;
    req.diskGb = rec->diskGb;
    req.properties = rec->properties;
    const auto candidates = PolicyValidationModule::qualifiedServers(
        db, req, {rec->serverId});
    if (candidates.empty()) {
        // §5.3: no qualified server — the VM must be shut down.
        responses[logIndex].detail += "; no qualified target, terminating";
        responses[logIndex].action = ResponsePolicy::Terminate;
        journalResponse(logIndex);
        proto::VmCommand cmd;
        cmd.vid = vid;
        repl.output(rec->serverId, pack(MessageKind::TerminateVm, cmd));
        return;
    }

    rec->status = VmStatus::Migrating;
    proto::MigrateOut cmd;
    cmd.vid = vid;
    cmd.targetServer = candidates.front();
    db.allocate(cmd.targetServer, rec->ramMb, rec->diskGb);
    responses[logIndex].targetServer = cmd.targetServer;
    journalVm(vid);
    journalServer(cmd.targetServer);
    journalResponse(logIndex);
    repl.output(rec->serverId, pack(MessageKind::MigrateOut, cmd));
}

void
CloudController::onCommandAck(MessageKind kind, const Bytes &body)
{
    auto ackR = proto::decode<proto::VmCommandAck>(body);
    if (!ackR)
        return;
    const proto::VmCommandAck ack = ackR.take();

    const auto it = outstandingResponses.find(ack.vid);
    if (it == outstandingResponses.end())
        return;
    const std::size_t logIndex = it->second;
    ResponseRecord &log = responses[logIndex];
    outstandingResponses.erase(it);

    log.completed = true;
    log.succeeded = ack.ok;
    log.completedAt = events.now();
    journalResponse(logIndex);

    VmRecord *rec = db.vm(ack.vid);
    if (!rec)
        return;

    if (kind == MessageKind::TerminateVmAck && ack.ok) {
        db.release(rec->serverId, rec->ramMb, rec->diskGb);
        rec->status = VmStatus::Terminated;
        journalVm(ack.vid);
        journalServer(rec->serverId);
    } else if (kind == MessageKind::SuspendVmAck && ack.ok) {
        rec->status = VmStatus::Suspended;
        journalVm(ack.vid);
        scheduleSuspendRecheck(ack.vid, logIndex);
    } else if (kind == MessageKind::MigrateOutAck) {
        if (ack.ok) {
            // The source released its copy; the DB moves the VM.
            const std::string oldServer = rec->serverId;
            db.release(oldServer, rec->ramMb, rec->diskGb);
            rec->serverId = log.targetServer;
            rec->status = VmStatus::Running;
            journalVm(ack.vid);
            journalServer(oldServer);
            retargetPeriodicAttestations(ack.vid, oldServer);
        } else {
            // Resumed at the source; release the reserved target.
            db.release(log.targetServer, rec->ramMb, rec->diskGb);
            rec->status = VmStatus::Running;
            journalVm(ack.vid);
            journalServer(log.targetServer);
        }
    }
}

void
CloudController::retargetPeriodicAttestations(const std::string &vid,
                                              const std::string &oldServer)
{
    const VmRecord *rec = db.vm(vid);
    if (!rec)
        return;
    for (auto &[attestId, ctx] : attests) {
        if (!ctx.periodic || ctx.vid != vid)
            continue;

        // Replace the task on the new cluster's attestor. The AS keys
        // periodic tasks by (vid, properties), so re-forwarding with
        // the same mode replaces the stale target when the cluster is
        // unchanged.
        const std::string oldAttestor = ctx.attestorId.empty()
                                            ? attestorFor(oldServer)
                                            : ctx.attestorId;
        ctx.serverId = rec->serverId;
        ctx.attestorId = attestorFor(rec->serverId);
        journalAttest(attestId);

        AttestForward fwd;
        fwd.requestId = attestId;
        fwd.vid = vid;
        fwd.serverId = rec->serverId;
        fwd.properties = ctx.properties;
        fwd.nonce2 = ctx.nonce2;
        fwd.mode = AttestMode::RuntimePeriodic;
        fwd.period = ctx.period;
        repl.output(ctx.attestorId, pack(MessageKind::AttestForward, fwd));

        // When the cluster changed, the old attestor still runs the
        // stale task: stop it explicitly.
        if (oldAttestor != ctx.attestorId) {
            AttestForward stop = fwd;
            stop.serverId = oldServer;
            stop.mode = AttestMode::StopPeriodic;
            repl.output(oldAttestor, pack(MessageKind::AttestForward, stop));
        }
    }
}

void
CloudController::scheduleSuspendRecheck(const std::string &vid,
                                        std::size_t logIndex)
{
    events.scheduleAfter(kSuspendRecheckPeriod,
                         [this, vid, logIndex, eraNow = log.era()] {
        if (log.stale(eraNow))
            return;
        VmRecord *rec = db.vm(vid);
        if (!rec || rec->status != VmStatus::Suspended ||
            logIndex >= responses.size())
            return;
        AttestContext ctx;
        ctx.kind = AttestKind::SuspendRecheck;
        ctx.vid = vid;
        ctx.properties = responses[logIndex].triggerProperties;
        if (ctx.properties.empty()) {
            ctx.properties = {
                proto::SecurityProperty::RuntimeIntegrity};
        }
        ctx.mode = AttestMode::RuntimeOneTime;
        ctx.customerRequestId = logIndex; // Carries the log index.
        forwardAttestation(std::move(ctx));
        commitJournal();
    }, "cc.suspend.recheck");
}

void
CloudController::handleRecheckReport(const AttestContext &ctx,
                                     const ReportToController &msg)
{
    VmRecord *rec = db.vm(ctx.vid);
    if (!rec || rec->status != VmStatus::Suspended)
        return;
    const std::size_t logIndex = ctx.customerRequestId;

    if (msg.report.allHealthy()) {
        // §5.2 #2: "the controller can resume the VM from the saved
        // state".
        if (logIndex < responses.size()) {
            responses[logIndex].resumedAfterRecheck = true;
            journalResponse(logIndex);
        }
        proto::VmCommand cmd;
        cmd.vid = ctx.vid;
        rec->status = VmStatus::Running;
        journalVm(ctx.vid);
        repl.output(rec->serverId, pack(MessageKind::ResumeVm, cmd));
        MONATT_LOG(Info, "cc") << ctx.vid
                               << " healthy again; resuming";
    } else {
        // Still unhealthy: keep it suspended, check again later.
        scheduleSuspendRecheck(ctx.vid, logIndex);
    }
}

// --- Durability: WAL helpers ------------------------------------------

void
CloudController::journalMeta()
{
    log.append(JournalType::Meta, MetaRecord{nextVmNumber, nextAttestId});
}

void
CloudController::journalVm(const std::string &vid)
{
    if (const VmRecord *rec = db.vm(vid))
        log.append(JournalType::VmUpsert, *rec);
    else
        log.append(JournalType::VmRemove, VidRecord{vid});
}

void
CloudController::journalServer(const std::string &serverId)
{
    if (const ServerRecord *rec = db.server(serverId))
        log.append(JournalType::ServerUpsert, *rec);
}

void
CloudController::journalPolicy(const std::string &vid)
{
    const auto it = policies.find(vid);
    if (it != policies.end())
        log.append(JournalType::PolicySet, PolicyRecord{vid, it->second});
}

void
CloudController::journalLaunch(const std::string &vid)
{
    const auto it = launches.find(vid);
    if (it != launches.end())
        log.append(JournalType::LaunchUpsert, it->second);
    else
        log.append(JournalType::LaunchRemove, VidRecord{vid});
}

void
CloudController::journalAttest(std::uint64_t attestId)
{
    const auto it = attests.find(attestId);
    if (it != attests.end()) {
        it->second.retries = it->second.forward.attempts();
        log.append(JournalType::AttestUpsert,
                   AttestRecord{attestId, it->second});
    } else {
        log.append(JournalType::AttestRemove, AttestIdRecord{attestId});
    }
}

void
CloudController::journalResponse(std::size_t index)
{
    if (index < responses.size())
        log.append(JournalType::ResponseUpsert,
                   ResponseLogRecord{index, responses[index]});
}

void
CloudController::journalAsHealth(const std::string &attestorId)
{
    const auto it = asHealth.find(attestorId);
    const AsHealth health = it == asHealth.end() ? AsHealth{} : it->second;
    log.append(JournalType::AsHealthSet,
               AsHealthRecord{attestorId, health.strikes, health.suspect});
}

// --- Durability: snapshot + replay ------------------------------------

proto::Snapshot
CloudController::snapshotState() const
{
    proto::Snapshot snap;
    snap.add(JournalType::Meta, MetaRecord{nextVmNumber, nextAttestId});
    for (const std::string &vid : db.vmIds())
        snap.add(JournalType::VmUpsert, *db.vm(vid));
    for (const std::string &id : db.serverIds())
        snap.add(JournalType::ServerUpsert, *db.server(id));
    for (const auto &[vid, policy] : policies)
        snap.add(JournalType::PolicySet, PolicyRecord{vid, policy});
    for (const auto &[vid, launch] : launches)
        snap.add(JournalType::LaunchUpsert, launch);
    for (const auto &[attestId, ctx] : attests)
        snap.add(JournalType::AttestUpsert, AttestRecord{attestId, ctx});
    for (std::size_t i = 0; i < responses.size(); ++i)
        snap.add(JournalType::ResponseUpsert,
                 ResponseLogRecord{i, responses[i]});
    for (const auto &[id, health] : asHealth)
        snap.add(JournalType::AsHealthSet,
                 AsHealthRecord{id, health.strikes, health.suspect});
    // Relay cache in FIFO order so replay reproduces eviction order.
    for (const auto &[key, packed] : relayCache)
        snap.add(JournalType::RelayRemember,
                 RelayRecord{key.first, key.second, packed});
    return snap;
}

void
CloudController::applyJournalRecord(const sim::JournalRecord &rec)
{
    switch (static_cast<JournalType>(rec.type)) {
      case JournalType::Meta:
        if (auto r = proto::decode<MetaRecord>(rec.payload)) {
            nextVmNumber = r.value().nextVmNumber;
            nextAttestId = r.value().nextAttestId;
        }
        break;
      case JournalType::VmUpsert:
        if (auto r = proto::decode<VmRecord>(rec.payload))
            db.addVm(r.take());
        break;
      case JournalType::VmRemove:
        if (auto r = proto::decode<VidRecord>(rec.payload))
            db.removeVm(r.value().vid);
        break;
      case JournalType::ServerUpsert:
        if (auto r = proto::decode<ServerRecord>(rec.payload))
            db.addServer(r.take());
        break;
      case JournalType::PolicySet:
        if (auto r = proto::decode<PolicyRecord>(rec.payload))
            policies[r.value().vid] = r.value().policy;
        break;
      case JournalType::LaunchUpsert:
        if (auto r = proto::decode<PendingLaunch>(rec.payload)) {
            const std::string vid = r.value().vid;
            launches[vid] = r.take();
        }
        break;
      case JournalType::LaunchRemove:
        if (auto r = proto::decode<VidRecord>(rec.payload))
            launches.erase(r.value().vid);
        break;
      case JournalType::AttestUpsert:
        if (auto r = proto::decode<AttestRecord>(rec.payload))
            attests[r.value().attestId] = std::move(r.value().ctx);
        break;
      case JournalType::AttestRemove:
        if (auto r = proto::decode<AttestIdRecord>(rec.payload))
            attests.erase(r.value().attestId);
        break;
      case JournalType::ResponseUpsert:
        if (auto r = proto::decode<ResponseLogRecord>(rec.payload)) {
            const std::uint64_t index = r.value().index;
            if (index >= responses.size())
                responses.resize(index + 1);
            responses[index] = std::move(r.value().record);
        }
        break;
      case JournalType::AsHealthSet:
        if (auto r = proto::decode<AsHealthRecord>(rec.payload))
            asHealth[r.value().attestorId] =
                AsHealth{r.value().strikes, r.value().suspect};
        break;
      case JournalType::RelayRemember:
        if (auto r = proto::decode<RelayRecord>(rec.payload))
            relayCache.insert({r.value().customer, r.value().requestId},
                              std::move(r.value().packed));
        break;
    }
}

// --- Durability: crash / restart / recovery ---------------------------

void
CloudController::crash()
{
    if (!endpoint.attached())
        return;
    MONATT_LOG(Info, "cc") << cfg.id << ": crash";
    endpoint.detach();
    // The un-fsynced journal tail is the page cache: lost. Allocation
    // counters on the surviving server rows come back from the journal.
    log.crash();
    resetVolatileState();
    repl.crash();
}

void
CloudController::resetVolatileState()
{
    for (auto &[attestId, ctx] : attests)
        events.cancel(ctx.forward.timer);
    for (const std::string &vid : db.vmIds())
        db.removeVm(vid);
    launches.clear();
    attests.clear();
    policies.clear();
    responses.clear();
    outstandingResponses.clear();
    asHealth.clear();
    customerInFlight.clear();
    relayCache.clear();
    pathRtt.clear();
    nextVmNumber = 1;
    nextAttestId = 1;
    busyUntil = 0;
}

void
CloudController::restart()
{
    if (endpoint.attached())
        return;
    MONATT_LOG(Info, "cc") << cfg.id << ": restart";
    endpoint.attach();
    repl.restart(events.now());
}

void
CloudController::rearmRecoveredWork()
{
    // Rebuild the derived in-flight marks from live customer requests.
    for (const auto &[attestId, ctx] : attests) {
        if (ctx.kind == AttestKind::CustomerRequest &&
            ctx.mode != AttestMode::StopPeriodic)
            customerInFlight.insert(
                CustomerKey{ctx.customer, ctx.customerRequestId});
    }

    // Incomplete remediation responses: the command (or its ack) may
    // have been lost in the outage — re-issue it. The server-side
    // handlers are idempotent, so a duplicate command just re-acks.
    for (std::size_t i = 0; i < responses.size(); ++i) {
        if (responses[i].completed)
            continue;
        outstandingResponses[responses[i].vid] = i;
        resendResponseCommand(i);
    }

    // Re-arm every in-flight attestation: re-send the forward rebuilt
    // from the journaled context (same nonce2, so a late pre-crash
    // reply still binds) with a fresh retry budget.
    for (auto &[attestId, ctx] : attests) {
        if (ctx.mode == AttestMode::StopPeriodic) {
            // Fire-and-forget: repeat the stop, which is idempotent.
            transmitForward(attestId);
            continue;
        }
        ++counters.recoveredAttests;
        ctx.forward.arm(events.now(), forwardBudget(ctx));
        ctx.recovered = true;
        journalAttest(attestId);
        transmitForward(attestId);
        if (!ctx.acked)
            scheduleForwardRetry(attestId);
    }

    // Re-drive interrupted launches.
    std::vector<std::string> launchVids;
    launchVids.reserve(launches.size());
    for (const auto &[vid, launch] : launches)
        launchVids.push_back(vid);
    for (const std::string &vid : launchVids) {
        VmRecord *rec = db.vm(vid);
        if (!rec)
            continue;
        switch (rec->status) {
          case VmStatus::Scheduling:
          case VmStatus::Networking:
          case VmStatus::Mapping: {
            // Pre-spawn stages are controller-local: restart the
            // pipeline from scheduling (releasing a half-made
            // placement first).
            if (!rec->serverId.empty()) {
                db.release(rec->serverId, rec->ramMb, rec->diskGb);
                journalServer(rec->serverId);
                rec->serverId.clear();
            }
            ++counters.recoveredLaunches;
            runSchedulingStage(vid);
            break;
          }
          case VmStatus::Spawning: {
            // The LaunchVm command is with the server; its ack may
            // arrive normally, or may have been lost in the outage.
            // Give the spawn its full modeled duration (plus a retry
            // budget's slack) and terminally fail the launch if no
            // ack landed by then.
            const SimTime grace =
                cfg.timing.spawnTime(rec->imageSizeMb, rec->ramMb) +
                proto::ReliabilityModel::kForward.rto;
            ++counters.recoveredLaunches;
            events.scheduleAfter(grace, [this, vid, eraNow = log.era()] {
                if (log.stale(eraNow))
                    return;
                VmRecord *rec = db.vm(vid);
                if (!rec || rec->status != VmStatus::Spawning ||
                    !launches.count(vid))
                    return;
                proto::VmCommand cmd;
                cmd.vid = vid;
                repl.output(rec->serverId,
                            pack(MessageKind::TerminateVm, cmd));
                db.release(rec->serverId, rec->ramMb, rec->diskGb);
                journalServer(rec->serverId);
                finishLaunch(vid, false,
                             "launch ack lost across controller restart");
                commitJournal();
            }, "cc.spawn.recover");
            break;
          }
          case VmStatus::Attesting: {
            // Only restart the attestation when no journaled context
            // survived (e.g. the report was verified and the context
            // retired, but the launch decision died with the crash).
            bool haveCtx = false;
            for (const auto &[attestId, ctx] : attests)
                haveCtx |= ctx.kind == AttestKind::StartupLaunch &&
                           ctx.vid == vid;
            if (!haveCtx) {
                ++counters.recoveredLaunches;
                startStartupAttestation(vid);
            }
            break;
          }
          default:
            break;
        }
    }

    // Suspended VMs with neither a pending suspend command nor a live
    // recheck attestation: re-arm the periodic recheck.
    for (const std::string &vid : db.vmIds()) {
        const VmRecord *rec = db.vm(vid);
        if (!rec || rec->status != VmStatus::Suspended ||
            outstandingResponses.count(vid))
            continue;
        bool haveRecheck = false;
        for (const auto &[attestId, ctx] : attests)
            haveRecheck |= ctx.kind == AttestKind::SuspendRecheck &&
                           ctx.vid == vid;
        if (haveRecheck)
            continue;
        for (std::size_t i = responses.size(); i-- > 0;) {
            if (responses[i].vid == vid &&
                responses[i].action == ResponsePolicy::Suspend &&
                responses[i].completed && responses[i].succeeded) {
                scheduleSuspendRecheck(vid, i);
                break;
            }
        }
    }
}

void
CloudController::resendResponseCommand(std::size_t logIndex)
{
    const ResponseRecord &log = responses[logIndex];
    const VmRecord *rec = db.vm(log.vid);
    if (!rec || rec->serverId.empty())
        return;
    switch (log.action) {
      case ResponsePolicy::Terminate: {
        proto::VmCommand cmd;
        cmd.vid = log.vid;
        repl.output(rec->serverId, pack(MessageKind::TerminateVm, cmd));
        break;
      }
      case ResponsePolicy::Suspend: {
        proto::VmCommand cmd;
        cmd.vid = log.vid;
        repl.output(rec->serverId, pack(MessageKind::SuspendVm, cmd));
        break;
      }
      case ResponsePolicy::Migrate: {
        if (log.targetServer.empty())
            break;
        proto::MigrateOut cmd;
        cmd.vid = log.vid;
        cmd.targetServer = log.targetServer;
        repl.output(rec->serverId, pack(MessageKind::MigrateOut, cmd));
        break;
      }
      case ResponsePolicy::None:
        break;
    }
}

// --- ReplicatedLog::Io ------------------------------------------------
//
// Control-plane traffic (ReplicateEntries/Ack, Vote*, NotLeader) and the
// released output both leave through send().

void
CloudController::send(const std::string &peer, Bytes packed)
{
    endpoint.sendSecure(peer, std::move(packed));
}

void
CloudController::resetPeer(const std::string &peer)
{
    endpoint.resetPeer(peer);
}

void
CloudController::armTimer(ReplicaTimer timer, SimTime delay)
{
    sim::EventId &id = replTimers[static_cast<std::size_t>(timer)];
    events.cancel(id);
    // Capture the crash era: a crash or step-down fences the timer.
    id = events.scheduleAfter(
        delay,
        [this, timer, eraNow = log.era()] {
            if (log.stale(eraNow))
                return;
            replTimers[static_cast<std::size_t>(timer)] = 0;
            repl.timerFired(timer);
        },
        timer == ReplicaTimer::Heartbeat ? "cc.heartbeat" : "cc.election");
}

void
CloudController::cancelTimer(ReplicaTimer timer)
{
    sim::EventId &id = replTimers[static_cast<std::size_t>(timer)];
    events.cancel(id);
    id = 0;
}

void
CloudController::becameLeader()
{
    log.recover([this] { rearmRecoveredWork(); });
}

void
CloudController::steppedDown()
{
    // Fence every lambda armed during the deposed reign. Live state
    // belongs to the leader now; this replica keeps only its journal
    // mirror.
    log.fence();
    resetVolatileState();
}

} // namespace monatt::controller
