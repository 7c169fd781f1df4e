#include "server/cloud_server.h"

#include <stdexcept>

#include "common/logging.h"
#include "crypto/sha256.h"

namespace monatt::server
{

using proto::MessageKind;
using proto::pack;
using proto::packMessage;
using proto::unpackMessage;

namespace
{

hypervisor::HypervisorConfig
makeHvConfig(const CloudServerConfig &cfg)
{
    hypervisor::HypervisorConfig hc;
    hc.numPCpus = cfg.pcpus;
    hc.sched = cfg.sched;
    hc.hypervisorCode = cfg.hypervisorCode;
    hc.hostOsCode = cfg.hostOsCode;
    return hc;
}

} // namespace

CloudServer::CloudServer(sim::EventQueue &eq, net::Network &network,
                         net::KeyDirectory &directory,
                         CloudServerConfig config, std::uint64_t seed)
    : events(eq), cfg(std::move(config)),
      trust(crypto::deriveKeyPair("server-identity", cfg.id, seed,
                                  cfg.identityKeyBits),
            crypto::seedMaterial("server-entropy", cfg.id, seed),
            cfg.aikBits),
      hyp(eq, makeHvConfig(cfg)), monitor(hyp, trust),
      endpoint(network, cfg.id, trust.identityKeyPair(), directory,
               crypto::seedMaterial("server-entropy", cfg.id,
                                    seed ^ 0x5eedULL))
{
    endpoint.onMessage([this](const net::NodeId &from, const Bytes &msg) {
        handleMessage(from, msg);
    });
}

void
CloudServer::boot()
{
    hyp.boot(trust.tpmDevice());
}

std::uint64_t
CloudServer::freeRamMb() const
{
    return cfg.totalRamMb - allocatedRamMb;
}

std::uint64_t
CloudServer::freeDiskGb() const
{
    return cfg.totalDiskGb - allocatedDiskGb;
}

const HostedVm &
CloudServer::vm(const std::string &vid) const
{
    const auto it = vms.find(vid);
    if (it == vms.end())
        throw std::out_of_range("CloudServer: unknown VM " + vid);
    return it->second;
}

hypervisor::DomainId
CloudServer::domainOf(const std::string &vid) const
{
    return vm(vid).domain;
}

hypervisor::GuestOs &
CloudServer::guestOs(const std::string &vid)
{
    return hyp.domain(domainOf(vid)).guestOs;
}

void
CloudServer::handleMessage(const net::NodeId &from, const Bytes &plaintext)
{
    auto unpacked = unpackMessage(plaintext);
    if (!unpacked) {
        MONATT_LOG(Warn, "server") << cfg.id << ": bad message from "
                                   << from;
        return;
    }
    const Bytes &body = unpacked.value().body;
    switch (unpacked.value().kind) {
      case MessageKind::MeasureRequest:
        onMeasureRequest(from, body);
        break;
      case MessageKind::CertResponse:
        onCertResponse(body);
        break;
      case MessageKind::LaunchVm:
        onLaunchVm(from, body);
        break;
      case MessageKind::TerminateVm:
        onTerminateVm(from, body);
        break;
      case MessageKind::SuspendVm:
        onSuspendVm(from, body);
        break;
      case MessageKind::ResumeVm:
        onResumeVm(from, body);
        break;
      case MessageKind::MigrateOut:
        onMigrateOut(from, body);
        break;
      case MessageKind::MigrateIn:
        onMigrateIn(from, body);
        break;
      case MessageKind::MigrateInAck:
        onMigrateInAck(from, body);
        break;
      default:
        MONATT_LOG(Warn, "server")
            << cfg.id << ": unexpected message kind from " << from;
        break;
    }
}

bool
CloudServer::isAttestor(const net::NodeId &from) const
{
    return cfg.attestorIds.count(from) != 0;
}

bool
CloudServer::isController(const net::NodeId &from) const
{
    return cfg.controllerIds.count(from) != 0;
}

void
CloudServer::onMeasureRequest(const net::NodeId &from, const Bytes &body)
{
    // Only an authorized Attestation Server may request measurements.
    if (!isAttestor(from)) {
        MONATT_LOG(Warn, "server")
            << cfg.id << ": measurement request from non-AS " << from;
        return;
    }
    auto req = proto::decode<proto::MeasureRequest>(body);
    if (!req)
        return;

    const std::uint64_t id = req.value().requestId;

    // Idempotent receive: a retransmitted request must not re-run the
    // measurement or re-execute the quote. In flight -> the original
    // response will answer it; already answered -> replay the cached
    // signed response verbatim.
    if (pending.count(id))
        return;
    if (const Bytes *cached = responseCache.find(id)) {
        endpoint.sendSecure(from,
                            packMessage(MessageKind::MeasureResponse,
                                        *cached));
        return;
    }

    PendingAttestation pa;
    pa.request = req.take();
    pa.requester = from;

    // Reuse the cached AVK session when it has responses left: the
    // reservation happens now (credit consumed, session pinned) so
    // concurrent requests cannot oversubscribe it, and the AIK
    // generation plus pCA round trip are skipped entirely.
    const bool reuseAik =
        cfg.aikReuseLimit > 1 && aikCache.remaining > 0;
    if (reuseAik) {
        --aikCache.remaining;
        ++sessionRefs[aikCache.handle];
        pa.session = aikCache.handle;
        pa.sessionLabel = aikCache.label;
        pa.certificate = aikCache.certificate;
        pa.haveCert = true;
    }
    pending[id] = std::move(pa);

    if (reuseAik) {
        events.scheduleAfter(cfg.timing.serverProcessing, [this, id] {
            collectMeasurements(id);
        }, "server.attest.prep");
        return;
    }

    // Step 3 of Figure 2: generate the session attestation key (the
    // dominant local cost) and have it certified by the privacy CA.
    const SimTime prep =
        cfg.timing.serverProcessing + cfg.timing.aikGeneration;
    events.scheduleAfter(prep, [this, id] { beginAikSession(id); },
                         "server.attest.prep");
}

void
CloudServer::beginAikSession(std::uint64_t requestId)
{
    auto it = pending.find(requestId);
    if (it == pending.end())
        return;
    PendingAttestation &pa = it->second;

    const tpm::AttestationSessionInfo session = trust.beginSession();
    pa.session = session.handle;
    ++sessionRefs[pa.session];
    pa.sessionLabel = "aik-" + std::to_string(++sessionCounter) + "@" +
                      toHex(trust.randomBytes(4));

    proto::CertRequest creq;
    creq.serverId = cfg.id;
    creq.sessionLabel = pa.sessionLabel;
    creq.avk = session.attestationKey.encode();
    creq.avkSignature = session.attestationKeySignature;
    certToRequest[pa.sessionLabel] = requestId;
    pa.certRequestBytes = pack(MessageKind::CertRequest, creq);
    pa.cert.arm(events.now());
    endpoint.sendSecure(cfg.pcaId, Bytes(pa.certRequestBytes));
    scheduleCertRetry(requestId);

    collectMeasurements(requestId);
}

void
CloudServer::scheduleCertRetry(std::uint64_t requestId)
{
    PendingAttestation &pa = pending.at(requestId);
    pa.cert.timer = events.scheduleAfter(
        pa.cert.timeout(proto::ReliabilityModel::kCert), [this, requestId] {
        auto it = pending.find(requestId);
        if (it == pending.end() || it->second.haveCert)
            return;
        PendingAttestation &p = it->second;
        switch (p.cert.expire(proto::ReliabilityModel::kCert)) {
          case sim::Exchange::Expiry::Idle:
            return;
          case sim::Exchange::Expiry::Resend:
            // Identical retransmission: the pCA's dedup cache answers
            // a duplicate with the already-issued certificate.
            endpoint.sendSecure(cfg.pcaId, Bytes(p.certRequestBytes));
            scheduleCertRetry(requestId);
            return;
          case sim::Exchange::Expiry::GiveUp:
            break;
        }
        MONATT_LOG(Warn, "server")
            << cfg.id << ": pCA unreachable, abandoning request "
            << requestId;
        certToRequest.erase(p.sessionLabel);
        releaseSession(p.session);
        pending.erase(it);
        // The pCA may have crashed and restarted: force a fresh
        // handshake before the next certification attempt.
        endpoint.resetPeer(cfg.pcaId);
    }, "server.cert.retry");
}

void
CloudServer::releaseSession(tpm::SessionHandle handle)
{
    if (handle == 0)
        return;
    auto it = sessionRefs.find(handle);
    if (it != sessionRefs.end() && it->second > 0)
        --it->second;
    const bool inFlight = it != sessionRefs.end() && it->second > 0;
    if (!inFlight && handle != aikCache.handle) {
        trust.endSession(handle);
        if (it != sessionRefs.end())
            sessionRefs.erase(it);
    }
}

void
CloudServer::cacheAikSession(const PendingAttestation &pa)
{
    if (cfg.aikReuseLimit <= 1)
        return;
    const tpm::SessionHandle old = aikCache.handle;
    aikCache.handle = pa.session;
    aikCache.label = pa.sessionLabel;
    aikCache.certificate = pa.certificate;
    aikCache.remaining = cfg.aikReuseLimit - 1;
    if (old != 0 && old != aikCache.handle) {
        // The rotated-out session dies once its in-flight users drain.
        const auto it = sessionRefs.find(old);
        if (it == sessionRefs.end() || it->second == 0) {
            trust.endSession(old);
            sessionRefs.erase(old);
        }
    }
}

void
CloudServer::collectMeasurements(std::uint64_t requestId)
{
    auto it = pending.find(requestId);
    if (it == pending.end())
        return;
    PendingAttestation &pa = it->second;

    bool windowed = false;
    for (proto::MeasurementType t : pa.request.rm)
        windowed |= MonitorModule::isWindowed(t);

    const bool haveVm = hasVm(pa.request.vid);
    if (haveVm && cfg.intrusivePause > 0) {
        // Intercepting monitor (ablation): freeze the VM while the
        // collection primitive runs.
        const hypervisor::DomainId dom = domainOf(pa.request.vid);
        hyp.pauseDomain(dom);
        events.scheduleAfter(cfg.intrusivePause, [this, dom] {
            if (hyp.hasDomain(dom))
                hyp.resumeDomain(dom);
        }, "server.intrusive.resume");
    }
    if (windowed && haveVm) {
        monitor.beginWindow(domainOf(pa.request.vid), events.now());
        const SimTime window = pa.request.window > 0 ? pa.request.window
                                                     : cfg.timing.runtimeWindow;
        events.scheduleAfter(window, [this, requestId] {
            finishMeasurements(requestId);
        }, "server.attest.window");
    } else {
        events.scheduleAfter(cfg.timing.staticCollection,
                             [this, requestId] {
            finishMeasurements(requestId);
        }, "server.attest.static");
    }
}

void
CloudServer::finishMeasurements(std::uint64_t requestId)
{
    auto it = pending.find(requestId);
    if (it == pending.end())
        return;
    PendingAttestation &pa = it->second;

    const bool haveVm = hasVm(pa.request.vid);
    for (proto::MeasurementType t : pa.request.rm) {
        Result<proto::Measurement> m =
            Result<proto::Measurement>::error("vm not hosted");
        if (t == proto::MeasurementType::TcbVersion) {
            // Platform firmware version, measured at boot into the
            // TPM-backed platform state. A rolled-back host reports
            // the downgraded version; the evidence is still validly
            // signed — only the AS minimum-TCB floor catches it.
            proto::Measurement tm;
            tm.type = t;
            tm.values.push_back(effectiveTcbVersion());
            m = Result<proto::Measurement>::ok(std::move(tm));
        } else if (MonitorModule::isWindowed(t)) {
            if (haveVm) {
                m = monitor.finishWindow(t, domainOf(pa.request.vid),
                                         events.now());
            }
        } else if (haveVm || t == proto::MeasurementType::PlatformPcrs) {
            const hypervisor::DomainId dom =
                haveVm ? domainOf(pa.request.vid) : -1;
            m = monitor.collectStatic(t, dom);
        }
        if (m) {
            pa.m.items.push_back(m.take());
        } else {
            MONATT_LOG(Warn, "server")
                << cfg.id << ": measurement "
                << proto::measurementTypeName(t)
                << " failed: " << m.errorMessage();
        }
    }
    pa.measured = true;
    maybeRespond(requestId);
}

void
CloudServer::onCertResponse(const Bytes &body)
{
    auto resp = proto::decode<proto::CertResponse>(body);
    if (!resp)
        return;
    const auto labelIt = certToRequest.find(resp.value().sessionLabel);
    if (labelIt == certToRequest.end())
        return;
    const std::uint64_t requestId = labelIt->second;
    certToRequest.erase(labelIt);

    auto it = pending.find(requestId);
    if (it == pending.end())
        return;
    events.cancel(it->second.cert.timer);
    if (!resp.value().ok) {
        MONATT_LOG(Warn, "server")
            << cfg.id << ": pCA refused certification: "
            << resp.value().error;
        releaseSession(it->second.session);
        pending.erase(it);
        return;
    }
    it->second.certificate = resp.take().certificate;
    it->second.haveCert = true;
    cacheAikSession(it->second);
    maybeRespond(requestId);
}

void
CloudServer::maybeRespond(std::uint64_t requestId)
{
    auto it = pending.find(requestId);
    if (it == pending.end())
        return;
    const PendingAttestation &pa = it->second;
    if (!pa.haveCert || !pa.measured)
        return;

    proto::MeasureResponse resp;
    resp.requestId = requestId;
    resp.vid = pa.request.vid;
    resp.rm = pa.request.rm;
    resp.m = pa.m;
    resp.nonce3 = pa.request.nonce3;

    // Stale-quote replay attack: a compromised host answers a fresh
    // challenge with evidence captured before a rollback, re-signed
    // under the current session so signature and quote checks pass.
    // The replay keeps the *stale* nonce3 — the AS freshness check is
    // the only thing that can catch this.
    auto stashIt = staleStash.find(resp.vid);
    if (rollbackActive() && rollbackFaults->replaysStale(cfg.id) &&
        stashIt != staleStash.end()) {
        resp.rm = stashIt->second.rm;
        resp.m = stashIt->second.m;
        resp.nonce3 = stashIt->second.nonce3;
    } else {
        staleStash[resp.vid] = StaleStash{resp.rm, resp.m, resp.nonce3};
    }
    resp.quote3 = proto::MeasureResponse::quoteInput(resp.vid, resp.rm,
                                                     resp.m, resp.nonce3);
    resp.certificate = pa.certificate;

    // Step 6 of Figure 2: the quote signature under the session's ASKs.
    Result<Bytes> sig =
        trust.signWithSession(pa.session, resp.signedPortion());
    const net::NodeId requester = pa.requester;
    releaseSession(pa.session);
    pending.erase(it);
    if (!sig)
        return;

    // The dedup cache holds the body as sent; a retransmitted request
    // is answered with the same bytes.
    resp.signature = sig.take();
    const Bytes body = proto::encode(resp);
    responseCache.insert(requestId, body);
    endpoint.sendSecure(requester,
                        packMessage(MessageKind::MeasureResponse, body));
}

void
CloudServer::crash()
{
    if (!endpoint.attached())
        return;
    MONATT_LOG(Info, "server") << cfg.id << ": crash (management plane)";
    endpoint.detach();
    // Volatile attestation state dies with the host software stack.
    // Hosted VMs keep running: the hypervisor sits below the crashing
    // Attestation/Management Clients.
    for (auto &[id, pa] : pending) {
        events.cancel(pa.cert.timer);
        if (pa.session != 0 && pa.session != aikCache.handle)
            trust.endSession(pa.session);
    }
    if (aikCache.handle != 0)
        trust.endSession(aikCache.handle);
    aikCache = AikSessionCache{};
    pending.clear();
    certToRequest.clear();
    sessionRefs.clear();
    responseCache.clear();
    migrations.clear();
    staleStash.clear();
}

bool
CloudServer::rollbackActive() const
{
    if (rollbackFaults == nullptr || !rollbackFaults->enabled())
        return false;
    const SimTime now = events.now();
    return now >= rollbackActiveFrom && now < rollbackActiveUntil;
}

std::uint64_t
CloudServer::effectiveTcbVersion() const
{
    if (rollbackActive() && rollbackFaults->rollsBack(cfg.id))
        return rollbackFaults->rollbackVersion();
    return cfg.firmwareVersion;
}

void
CloudServer::restart()
{
    if (endpoint.attached())
        return;
    MONATT_LOG(Info, "server") << cfg.id << ": restart";
    endpoint.attach();
}

hypervisor::DomainId
CloudServer::createVmDomain(const proto::LaunchVm &req)
{
    const int pcpu = nextPcpu;
    nextPcpu = (nextPcpu + 1) % cfg.pcpus;
    const hypervisor::DomainId dom = hyp.createDomain(
        req.name, static_cast<int>(req.numVcpus), pcpu, req.image,
        req.weight);
    // Baseline guest services; tests add workloads/malware on top.
    hyp.domain(dom).guestOs.startProcess("init");
    hyp.domain(dom).guestOs.startProcess("sshd");
    return dom;
}

void
CloudServer::onLaunchVm(const net::NodeId &from, const Bytes &body)
{
    auto reqR = proto::decode<proto::LaunchVm>(body);
    if (!reqR || !isController(from))
        return;
    const proto::LaunchVm req = reqR.take();

    auto nack = [&](const std::string &why) {
        proto::LaunchVmAck ack;
        ack.vid = req.vid;
        ack.ok = false;
        ack.error = why;
        endpoint.sendSecure(from, pack(MessageKind::LaunchVmAck, ack));
    };

    if (vms.count(req.vid)) {
        nack("vid already hosted");
        return;
    }
    if (req.ramMb > freeRamMb() || req.diskGb > freeDiskGb()) {
        nack("insufficient resources");
        return;
    }

    allocatedRamMb += req.ramMb;
    allocatedDiskGb += req.diskGb;

    // Spawning: stage the image and boot.
    const SimTime spawn = cfg.timing.spawnTime(req.imageSizeMb, req.ramMb);
    events.scheduleAfter(spawn, [this, req, from] {
        // Measure the image before launch (phase two of §4.2.2).
        hypervisor::IntegrityMeasurementUnit imu(trust.tpmDevice());
        const Bytes digest = imu.measureVmImage(req.image);

        HostedVm hosted;
        hosted.vid = req.vid;
        hosted.domain = createVmDomain(req);
        hosted.vcpus = req.numVcpus;
        hosted.ramMb = req.ramMb;
        hosted.diskGb = req.diskGb;
        hosted.imageSizeMb = req.imageSizeMb;
        hosted.image = req.image;
        hosted.weight = req.weight;
        vms[req.vid] = std::move(hosted);

        proto::LaunchVmAck ack;
        ack.vid = req.vid;
        ack.ok = true;
        ack.imageDigest = digest;
        endpoint.sendSecure(from, pack(MessageKind::LaunchVmAck, ack));
    }, "server.spawn");
}

void
CloudServer::onTerminateVm(const net::NodeId &from, const Bytes &body)
{
    auto cmdR = proto::decode<proto::VmCommand>(body);
    if (!cmdR || !isController(from))
        return;
    const proto::VmCommand cmd = cmdR.take();

    proto::VmCommandAck ack;
    ack.vid = cmd.vid;
    if (!hasVm(cmd.vid)) {
        ack.ok = false;
        ack.error = "unknown vm";
        endpoint.sendSecure(from, pack(MessageKind::TerminateVmAck, ack));
        return;
    }

    const HostedVm &hosted = vms[cmd.vid];
    const SimTime cost = cfg.timing.terminateTime(hosted.ramMb);
    events.scheduleAfter(cost, [this, cmd, from] {
        auto it = vms.find(cmd.vid);
        if (it != vms.end()) {
            hyp.destroyDomain(it->second.domain);
            allocatedRamMb -= it->second.ramMb;
            allocatedDiskGb -= it->second.diskGb;
            vms.erase(it);
        }
        proto::VmCommandAck ack;
        ack.vid = cmd.vid;
        ack.ok = true;
        endpoint.sendSecure(from, pack(MessageKind::TerminateVmAck, ack));
    }, "server.terminate");
}

void
CloudServer::onSuspendVm(const net::NodeId &from, const Bytes &body)
{
    auto cmdR = proto::decode<proto::VmCommand>(body);
    if (!cmdR || !isController(from))
        return;
    const proto::VmCommand cmd = cmdR.take();

    proto::VmCommandAck ack;
    ack.vid = cmd.vid;
    if (!hasVm(cmd.vid)) {
        ack.ok = false;
        ack.error = "unknown vm";
        endpoint.sendSecure(from, pack(MessageKind::SuspendVmAck, ack));
        return;
    }

    HostedVm &hosted = vms[cmd.vid];
    // Pause immediately; the ack arrives once the state save is done.
    hyp.pauseDomain(hosted.domain);
    hosted.suspended = true;
    const SimTime cost = cfg.timing.suspendTime(hosted.ramMb);
    events.scheduleAfter(cost, [this, cmd, from] {
        proto::VmCommandAck ack;
        ack.vid = cmd.vid;
        ack.ok = true;
        endpoint.sendSecure(from, pack(MessageKind::SuspendVmAck, ack));
    }, "server.suspend");
}

void
CloudServer::onResumeVm(const net::NodeId &from, const Bytes &body)
{
    auto cmdR = proto::decode<proto::VmCommand>(body);
    if (!cmdR || !isController(from))
        return;
    const proto::VmCommand cmd = cmdR.take();

    proto::VmCommandAck ack;
    ack.vid = cmd.vid;
    if (!hasVm(cmd.vid) || !vms[cmd.vid].suspended) {
        ack.ok = false;
        ack.error = "unknown or not suspended vm";
        endpoint.sendSecure(from, pack(MessageKind::ResumeVmAck, ack));
        return;
    }

    const SimTime cost = cfg.timing.resumeTime(vms[cmd.vid].ramMb);
    events.scheduleAfter(cost, [this, cmd, from] {
        auto it = vms.find(cmd.vid);
        if (it != vms.end() && it->second.suspended) {
            hyp.resumeDomain(it->second.domain);
            it->second.suspended = false;
        }
        proto::VmCommandAck ack;
        ack.vid = cmd.vid;
        ack.ok = true;
        endpoint.sendSecure(from, pack(MessageKind::ResumeVmAck, ack));
    }, "server.resume");
}

void
CloudServer::onMigrateOut(const net::NodeId &from, const Bytes &body)
{
    auto cmdR = proto::decode<proto::MigrateOut>(body);
    if (!cmdR || !isController(from))
        return;
    const proto::MigrateOut cmd = cmdR.take();

    if (!hasVm(cmd.vid)) {
        proto::VmCommandAck ack;
        ack.vid = cmd.vid;
        ack.ok = false;
        ack.error = "unknown vm";
        endpoint.sendSecure(from, pack(MessageKind::MigrateOutAck, ack));
        return;
    }

    HostedVm &hosted = vms[cmd.vid];
    // Stop-and-copy migration: pause, ship RAM + image, resume there.
    hyp.pauseDomain(hosted.domain);
    hosted.suspended = true;
    migrations[cmd.vid] = from;

    proto::MigrateIn mig;
    mig.vid = hosted.vid;
    mig.name = hyp.domain(hosted.domain).name;
    mig.numVcpus = hosted.vcpus;
    mig.ramMb = hosted.ramMb;
    mig.diskGb = hosted.diskGb;
    mig.imageSizeMb = hosted.imageSizeMb;
    mig.image = hosted.image;
    mig.weight = hosted.weight;
    // Guest memory moves verbatim: visible and rootkit-hidden
    // processes and the audit log all survive the move.
    const hypervisor::GuestOs &srcOs = hyp.domain(hosted.domain).guestOs;
    for (const hypervisor::Process &proc : srcOs.processes()) {
        if (proc.hidden)
            mig.hiddenTasks.push_back(proc.name);
        else
            mig.guestTasks.push_back(proc.name);
    }
    mig.auditEntries = srcOs.auditLogEntries();

    // The RAM copy dominates: charge it to the wire.
    const std::uint64_t ramBytes = hosted.ramMb * 1024 * 1024;
    endpoint.sendSecure(cmd.targetServer,
                        pack(MessageKind::MigrateIn, mig),
                        ramBytes);
}

void
CloudServer::onMigrateIn(const net::NodeId &from, const Bytes &body)
{
    auto migR = proto::decode<proto::MigrateIn>(body);
    if (!migR)
        return;
    const proto::MigrateIn mig = migR.take();

    proto::VmCommandAck ack;
    ack.vid = mig.vid;
    if (vms.count(mig.vid) || mig.ramMb > freeRamMb() ||
        mig.diskGb > freeDiskGb()) {
        ack.ok = false;
        ack.error = "cannot accept migration";
        endpoint.sendSecure(from, pack(MessageKind::MigrateInAck, ack));
        return;
    }

    allocatedRamMb += mig.ramMb;
    allocatedDiskGb += mig.diskGb;

    events.scheduleAfter(cfg.timing.migrationResume, [this, mig, from] {
        hypervisor::IntegrityMeasurementUnit imu(trust.tpmDevice());
        imu.measureVmImage(mig.image);

        proto::LaunchVm launch;
        launch.vid = mig.vid;
        launch.name = mig.name;
        launch.numVcpus = mig.numVcpus;
        launch.image = mig.image;
        launch.weight = mig.weight;

        HostedVm hosted;
        hosted.vid = mig.vid;
        hosted.domain = createVmDomain(launch);
        hosted.vcpus = mig.numVcpus;
        hosted.ramMb = mig.ramMb;
        hosted.diskGb = mig.diskGb;
        hosted.imageSizeMb = mig.imageSizeMb;
        hosted.image = mig.image;
        hosted.weight = mig.weight;
        vms[mig.vid] = std::move(hosted);

        // Restore carried guest state exactly.
        hypervisor::GuestOs &os = guestOs(mig.vid);
        for (const std::string &task : mig.guestTasks) {
            if (task != "init" && task != "sshd")
                os.startProcess(task);
        }
        for (const std::string &task : mig.hiddenTasks)
            os.injectHiddenMalware(task);
        for (const std::string &entry : mig.auditEntries)
            os.appendAuditEvent(entry);

        proto::VmCommandAck ack;
        ack.vid = mig.vid;
        ack.ok = true;
        endpoint.sendSecure(from, pack(MessageKind::MigrateInAck, ack));
    }, "server.migrate.in");
}

void
CloudServer::onMigrateInAck(const net::NodeId &from, const Bytes &body)
{
    (void)from;
    auto ackR = proto::decode<proto::VmCommandAck>(body);
    if (!ackR)
        return;
    const proto::VmCommandAck ack = ackR.take();

    const auto migIt = migrations.find(ack.vid);
    if (migIt == migrations.end())
        return;
    const net::NodeId controller = migIt->second;
    migrations.erase(migIt);

    proto::VmCommandAck out;
    out.vid = ack.vid;
    if (ack.ok) {
        // Tear down the source copy.
        auto it = vms.find(ack.vid);
        if (it != vms.end()) {
            hyp.destroyDomain(it->second.domain);
            allocatedRamMb -= it->second.ramMb;
            allocatedDiskGb -= it->second.diskGb;
            vms.erase(it);
        }
        out.ok = true;
    } else {
        // Migration failed: resume locally.
        auto it = vms.find(ack.vid);
        if (it != vms.end() && it->second.suspended) {
            hyp.resumeDomain(it->second.domain);
            it->second.suspended = false;
        }
        out.ok = false;
        out.error = "target rejected migration: " + ack.error;
    }
    endpoint.sendSecure(controller, pack(MessageKind::MigrateOutAck, out));
}

} // namespace monatt::server
