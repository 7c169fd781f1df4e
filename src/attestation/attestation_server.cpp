#include "attestation/attestation_server.h"

#include "common/logging.h"
#include "crypto/sha256.h"
#include "tpm/certificate.h"

namespace monatt::attestation
{

using proto::AttestationReport;
using proto::AttestForward;
using proto::AttestMode;
using proto::HealthStatus;
using proto::MeasureRequest;
using proto::MeasureResponse;
using proto::MessageKind;
using proto::pack;
using proto::PropertyResult;
using proto::ReportToController;

namespace
{

/**
 * Deterministic per-AS session-id base. Under failover two ASes may
 * measure the same cloud server concurrently; disjoint id spaces keep
 * MeasureRequest ids (the server's pending-map key) from colliding.
 */
std::uint64_t
sessionBase(const std::string &id)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : id)
        h = (h ^ c) * 0x100000001b3ULL;
    return ((h & 0xffffffULL) << 32) + 1;
}

} // namespace

AttestationServer::AttestationServer(sim::EventQueue &eq,
                                     net::Network &network,
                                     net::KeyDirectory &directory,
                                     AttestationServerConfig config,
                                     std::uint64_t seed)
    : events(eq), cfg(std::move(config)),
      keys(crypto::deriveKeyPair("as-identity", cfg.id, seed,
                                 cfg.identityKeyBits)),
      signCtx(keys.priv), dir(directory),
      endpoint(network, cfg.id, keys, directory,
               crypto::seedMaterial("as-endpoint", cfg.id, seed)),
      registry(InterpreterRegistry::withDefaults()), rng(seed ^ 0xa5a5),
      certCache(kCertCacheCapacity), reportCache(cfg.reportCacheCapacity),
      log(cfg.id, cfg.durable, cfg.checkpointPolicy,
          [this] { return snapshotState(); },
          [this](const sim::JournalRecord &rec) { applyJournalRecord(rec); }),
      nextSession(sessionBase(cfg.id))
{
    endpoint.onMessage([this](const net::NodeId &from, const Bytes &msg) {
        handleMessage(from, msg);
    });
    endpoint.setReliability(net::EndpointReliability{
        cfg.reliability.enabled, cfg.reliability.handshakeRto,
        cfg.reliability.handshakeRetryLimit});
}

void
AttestationServer::setServerReference(const std::string &serverId,
                                      ServerReference ref)
{
    serverRefs[serverId] = std::move(ref);
}

void
AttestationServer::addKnownGoodImage(const Bytes &digest)
{
    knownGoodImages.insert(digest);
}

const proto::MeasurementSet *
AttestationServer::lastMeasurements(const std::string &vid) const
{
    const auto it = measurementArchive.find(vid);
    return it == measurementArchive.end() ? nullptr : &it->second;
}

std::size_t
AttestationServer::activePeriodicTasks() const
{
    std::size_t n = 0;
    for (const auto &[key, task] : periodic)
        n += task.active;
    return n;
}

std::string
AttestationServer::periodicKey(const AttestForward &fwd)
{
    std::string key = fwd.vid;
    for (proto::SecurityProperty p : fwd.properties)
        key += "|" + propertyName(p);
    return key;
}

void
AttestationServer::handleMessage(const net::NodeId &from,
                                 const Bytes &plaintext)
{
    auto unpacked = proto::unpackMessage(plaintext);
    if (!unpacked)
        return;
    const Bytes &body = unpacked.value().body;
    switch (unpacked.value().kind) {
      case MessageKind::AttestForward:
        if (isKnownController(from))
            onAttestForward(from, body);
        break;
      case MessageKind::MeasureResponse:
        onMeasureResponse(body);
        break;
      default:
        MONATT_LOG(Warn, "as") << cfg.id
                               << ": unexpected message from " << from;
        break;
    }
}

bool
AttestationServer::isKnownController(const net::NodeId &node) const
{
    if (cfg.controllerIds.empty())
        return node == cfg.controllerId;
    return cfg.controllerIds.count(node) != 0;
}

void
AttestationServer::onAttestForward(const net::NodeId &from,
                                   const Bytes &body)
{
    auto fwdR = proto::decode<AttestForward>(body);
    if (!fwdR)
        return;
    const AttestForward fwd = fwdR.take();

    events.scheduleAfter(cfg.timing.attestorProcessing,
                         [this, from, fwd, eraNow = log.era()] {
        if (!log.stale(eraNow))
            processForward(from, fwd);
    }, "as.forward");
}

void
AttestationServer::processForward(const net::NodeId &from,
                                  const AttestForward &fwd)
{
    // Idempotent receive: a retransmitted forward must not start a
    // second measurement pipeline or double-sign a finished report.
    if (fwd.mode == AttestMode::StartupOneTime ||
        fwd.mode == AttestMode::RuntimeOneTime) {
        if (forwardInFlight.count(fwd.requestId)) {
            ++counters.duplicateForwards;
            return;
        }
        if (const Bytes *cached = reportCache.find(fwd.requestId)) {
            ++counters.duplicateForwards;
            // Answer the shard that asked: after a controller-side
            // failover or crash the retransmission may come from a
            // different node than the original forward.
            endpoint.sendSecure(from,
                                proto::packMessage(
                                    MessageKind::ReportToController,
                                    *cached));
            return;
        }
        forwardInFlight.insert(fwd.requestId);
        startMeasurement(fwd, from);
        return;
    }

    switch (fwd.mode) {
      case AttestMode::RuntimePeriodic: {
        const std::string key = periodicKey(fwd);
        const auto it = periodic.find(key);
        // A duplicate of the already-running task is a no-op; a new
        // requestId (or retargeted server) replaces the task.
        if (it != periodic.end() && it->second.active &&
            it->second.forward.requestId == fwd.requestId &&
            it->second.forward.serverId == fwd.serverId) {
            ++counters.duplicateForwards;
            return;
        }
        periodic[key] = PeriodicTask{fwd, from, true};
        runPeriodicRound(key);
        break;
      }
      case AttestMode::StopPeriodic: {
        const std::string key = periodicKey(fwd);
        auto it = periodic.find(key);
        if (it != periodic.end())
            it->second.active = false;
        break;
      }
      default:
        break;
    }
}

void
AttestationServer::runPeriodicRound(const std::string &key)
{
    auto it = periodic.find(key);
    if (it == periodic.end() || !it->second.active)
        return;
    ++counters.periodicRoundsRun;
    startMeasurement(it->second.forward, it->second.controller);

    const SimTime period =
        it->second.forward.period > 0
            ? it->second.forward.period
            : cfg.randomPeriodMin +
                  static_cast<SimTime>(rng.nextBounded(
                      static_cast<std::uint64_t>(cfg.randomPeriodMax -
                                                 cfg.randomPeriodMin)));
    events.scheduleAfter(period, [this, key, eraNow = log.era()] {
        if (!log.stale(eraNow))
            runPeriodicRound(key);
    }, "as.periodic");
}

void
AttestationServer::startMeasurement(const AttestForward &fwd,
                                    const net::NodeId &controller)
{
    const std::uint64_t sessionId = nextSession++;
    Session session;
    session.forward = fwd;
    session.controller = controller;
    session.nonce3 = rng.nextBytes(16);
    session.exchange.arm(events.now(),
                         cfg.timing.measureBudget(
                             proto::measuresWindow(fwd.properties)));

    MeasureRequest req;
    req.requestId = sessionId;
    req.vid = fwd.vid;
    for (proto::SecurityProperty p : fwd.properties) {
        for (proto::MeasurementType t : measurementsForProperty(p))
            req.rm.push_back(t);
    }
    // Minimum-TCB policy: every challenge also demands the platform
    // firmware version, so the appraisal below can hold it against
    // the configured floor.
    if (cfg.tcbPolicy.enabled())
        req.rm.push_back(proto::MeasurementType::TcbVersion);
    req.nonce3 = session.nonce3;
    req.window = 0; // Let the server apply its configured window.

    Bytes packed =
        pack(MessageKind::MeasureRequest, req);
    session.requestBytes = packed;
    sessions[sessionId] = std::move(session);
    ++counters.measurementRequestsSent;
    if (cfg.reliability.enabled)
        scheduleMeasureRetry(sessionId);
    endpoint.sendSecure(fwd.serverId, std::move(packed));
}

void
AttestationServer::scheduleMeasureRetry(std::uint64_t sessionId)
{
    Session &s = sessions.at(sessionId);
    s.exchange.timer = events.scheduleAfter(
        s.exchange.timeout(cfg.reliability.measure(),
                           &serverRtt[s.forward.serverId]),
        [this, sessionId, eraNow = log.era()] {
        auto it = sessions.find(sessionId);
        if (log.stale(eraNow) || it == sessions.end())
            return;
        Session &s = it->second;
        switch (s.exchange.expire(cfg.reliability.measure(),
                                  &serverRtt[s.forward.serverId])) {
          case sim::Exchange::Expiry::Idle:
            return;
          case sim::Exchange::Expiry::Resend:
            ++counters.measureRetries;
            // Identical retransmission: the server's dedup cache
            // answers a duplicate without re-executing the quote.
            endpoint.sendSecure(s.forward.serverId, Bytes(s.requestBytes));
            scheduleMeasureRetry(sessionId);
            return;
          case sim::Exchange::Expiry::GiveUp:
            break;
        }
        // Exhausted: the session terminates with an authentic Unknown
        // report — the customer learns the measurement could not be
        // collected, never a forged verdict.
        ++counters.measureTimeouts;
        MONATT_LOG(Warn, "as")
            << cfg.id << ": server " << s.forward.serverId
            << " unresponsive, session " << sessionId << " abandoned";
        const Session copy = std::move(s);
        sessions.erase(it);
        // A crashed-and-restarted server lost its session keys; force a
        // fresh handshake on the next contact.
        endpoint.resetPeer(copy.forward.serverId);
        applyVerified(copy, Result<proto::MeasurementSet>::error(
                                "cloud server unreachable"));
    }, "as.measure.retry");
}

void
AttestationServer::rememberReport(std::uint64_t requestId, Bytes encoded)
{
    if (const Bytes *stored = reportCache.insert(requestId, std::move(encoded)))
        log.append(JournalType::ReportRemember,
                   ReportRecord{requestId, *stored});
}

const crypto::RsaPublicContext &
AttestationServer::pcaContext(const crypto::RsaPublicKey &key)
{
    if (!pcaCtx || !(pcaCtx->key() == key)) {
        pcaCtx.emplace(key);
        // A rotated pCA key invalidates every cached chain check.
        certCache.clear();
    }
    return *pcaCtx;
}

Result<crypto::RsaPublicKey>
AttestationServer::checkCertificate(const Bytes &certBytes,
                                    const std::string &pcaId,
                                    const crypto::RsaPublicContext &pca)
{
    using R = Result<crypto::RsaPublicKey>;
    auto certR = tpm::Certificate::decode(certBytes);
    if (!certR)
        return R::error("malformed attestation-key certificate");
    const tpm::Certificate cert = certR.take();
    if (cert.issuer != pcaId || !cert.verify(pca))
        return R::error("attestation-key certificate verification failed");
    auto avk = cert.publicKey();
    if (!avk)
        return R::error("malformed attestation key in certificate");
    return avk;
}

Result<proto::MeasurementSet>
AttestationServer::verifyWithAvk(const Session &session,
                                 const MeasureResponse &resp,
                                 const crypto::RsaPublicContext &avk)
{
    using R = Result<proto::MeasurementSet>;

    // 2. Session-key signature over [Vid, rM, M, N3, Q3].
    if (!crypto::rsaVerify(avk, resp.signedPortion(), resp.signature))
        return R::error("measurement signature verification failed");

    // 3. Quote recomputation.
    const Bytes expectedQ3 = MeasureResponse::quoteInput(
        resp.vid, resp.rm, resp.m, resp.nonce3);
    if (!constantTimeEqual(expectedQ3, resp.quote3))
        return R::error("quote Q3 mismatch");

    // 4. Binding to the outstanding session (nonce freshness).
    if (!constantTimeEqual(resp.nonce3, session.nonce3))
        return R::error("nonce N3 mismatch (replay?)");
    if (resp.vid != session.forward.vid)
        return R::error("vid mismatch");

    return R::ok(resp.m);
}

void
AttestationServer::onMeasureResponse(const Bytes &body)
{
    auto respR = proto::decode<MeasureResponse>(body);
    if (!respR) {
        ++counters.verificationFailures;
        return;
    }
    const MeasureResponse resp = respR.take();
    const auto it = sessions.find(resp.requestId);
    if (it == sessions.end()) {
        ++counters.verificationFailures;
        MONATT_LOG(Warn, "as") << "response for unknown session "
                               << resp.requestId;
        return;
    }
    events.cancel(it->second.exchange.timer);
    it->second.exchange.reply(events.now(),
                              &serverRtt[it->second.forward.serverId]);
    const Session session = std::move(it->second);
    sessions.erase(it);

    applyVerified(session, verifyResponse(session, resp));
    log.commit(events.now());
}

Result<proto::MeasurementSet>
AttestationServer::verifyResponse(const Session &session,
                                  const MeasureResponse &resp)
{
    using R = Result<proto::MeasurementSet>;
    auto pcaKey = dir.lookup(cfg.pcaId);
    if (!pcaKey)
        return R::error("no pCA key available");
    const crypto::RsaPublicContext &pca = pcaContext(pcaKey.value());

    // 1. Certificate chain, memoized by certificate digest: a reused
    // AVK session is chain-checked once. Failures are never cached.
    const Bytes digest = crypto::Sha256::hash(resp.certificate);
    if (const crypto::RsaPublicContext *hit = certCache.find(digest)) {
        ++counters.certCacheHits;
        return verifyWithAvk(session, resp, *hit);
    }
    ++counters.certCacheMisses;
    auto avk = checkCertificate(resp.certificate, cfg.pcaId, pca);
    if (!avk)
        return R::error(avk.errorMessage());
    // The find above missed, so the insert stores the new entry.
    const crypto::RsaPublicContext &compiled =
        *certCache.insert(digest, crypto::RsaPublicContext(avk.value()));
    log.append(JournalType::CertInsert,
               CertRecord{digest, avk.value().encode()});
    // 2-4. Session signature, quote and nonce binding.
    return verifyWithAvk(session, resp, compiled);
}

void
AttestationServer::applyVerified(const Session &session,
                                 Result<proto::MeasurementSet> verified)
{
    AttestationReport report;
    report.vid = session.forward.vid;
    if (!verified) {
        ++counters.verificationFailures;
        MONATT_LOG(Warn, "as") << "measurement verification failed: "
                               << verified.errorMessage();
        // An N3 freshness failure means validly-signed but *old*
        // evidence answered a fresh challenge. With the minimum-TCB
        // policy armed that is attributed as a rollback-adjacent
        // attack (stale-quote replay), not mere verification noise:
        // the controller must treat the host as compromised.
        const bool staleReplay =
            cfg.tcbPolicy.enabled() &&
            verified.errorMessage() == "nonce N3 mismatch (replay?)";
        if (staleReplay)
            ++counters.staleReplaysDetected;
        for (proto::SecurityProperty p : session.forward.properties) {
            PropertyResult pr;
            pr.property = p;
            if (staleReplay) {
                pr.status = HealthStatus::TcbRollback;
                pr.detail = "stale quote replayed for fresh challenge";
                ++counters.tcbRollbackVerdicts;
            } else {
                pr.status = HealthStatus::Unknown;
                pr.detail = "measurement verification failed: " +
                            verified.errorMessage();
            }
            report.results.push_back(std::move(pr));
        }
        events.scheduleAfter(cfg.timing.interpretation,
                             [this, session, report,
                              eraNow = log.era()]() mutable {
            if (log.stale(eraNow))
                return;
            report.issuedAt = events.now();
            issueReport(session, std::move(report));
        }, "as.report");
        return;
    }

    ++counters.responsesVerified;
    const proto::MeasurementSet m = verified.take();
    // Capture the previous archived measurements before overwriting:
    // history-sensitive interpreters compare against them.
    proto::MeasurementSet previous;
    bool havePrevious = false;
    const auto archIt = measurementArchive.find(session.forward.vid);
    if (archIt != measurementArchive.end()) {
        previous = archIt->second;
        havePrevious = true;
    }
    measurementArchive[session.forward.vid] = m;

    events.scheduleAfter(cfg.timing.interpretation,
                         [this, session, m, previous, havePrevious,
                          eraNow = log.era()]() mutable {
        if (log.stale(eraNow))
            return;
        InterpretationContext ctx;
        if (havePrevious)
            ctx.previous = &previous;
        const auto serverIt = serverRefs.find(session.forward.serverId);
        if (serverIt != serverRefs.end())
            ctx.serverRef = &serverIt->second;
        ctx.knownGoodImages = &knownGoodImages;

        // Minimum-TCB appraisal: the verified (signed) TCB version
        // measurement, held against each property's floor. Absence
        // counts as version 0 — a host that strips the measurement
        // must not out-trust one that honestly reports an old build.
        std::uint64_t reportedTcb = 0;
        bool haveTcb = false;
        if (const proto::Measurement *tv =
                m.find(proto::MeasurementType::TcbVersion);
            tv != nullptr && !tv->values.empty()) {
            reportedTcb = tv->values[0];
            haveTcb = true;
        }

        AttestationReport report;
        report.vid = session.forward.vid;
        for (proto::SecurityProperty p : session.forward.properties) {
            PropertyResult pr = registry.interpret(p, m, ctx);
            const std::uint64_t floor = cfg.tcbPolicy.floorFor(p);
            if (floor > 0 && reportedTcb < floor) {
                pr.status = HealthStatus::TcbRollback;
                pr.detail =
                    haveTcb
                        ? "TCB version " + std::to_string(reportedTcb) +
                              " below minimum " + std::to_string(floor)
                        : "no TCB version measurement (floor " +
                              std::to_string(floor) + ")";
                ++counters.tcbRollbackVerdicts;
            }
            report.results.push_back(std::move(pr));
        }
        report.issuedAt = events.now();
        issueReport(session, std::move(report));
    }, "as.interpret");
}

void
AttestationServer::issueReport(const Session &session,
                               AttestationReport report)
{
    ReportToController out;
    out.requestId = session.forward.requestId;
    out.vid = session.forward.vid;
    out.serverId = session.forward.serverId;
    out.properties = session.forward.properties;
    out.report = std::move(report);
    out.nonce2 = session.forward.nonce2;
    out.quote2 = ReportToController::quoteInput(
        out.vid, out.serverId, out.properties, out.report, out.nonce2);
    out.signature = crypto::rsaSign(signCtx, out.signedPortion());

    // The dedup cache and its journal record hold the body as sent;
    // a retransmitted forward is answered with the same bytes.
    ++counters.reportsIssued;
    const Bytes body = proto::encode(out);
    if (session.forward.mode == AttestMode::StartupOneTime ||
        session.forward.mode == AttestMode::RuntimeOneTime) {
        forwardInFlight.erase(out.requestId);
        rememberReport(out.requestId, body);
    }
    endpoint.sendSecure(session.controller.empty() ? cfg.controllerId
                                                   : session.controller,
                        proto::packMessage(MessageKind::ReportToController,
                                           body));
    log.commit(events.now());
}

void
AttestationServer::crash()
{
    if (!endpoint.attached())
        return;
    MONATT_LOG(Info, "as") << cfg.id << ": crash";
    endpoint.detach();
    // Fences every deferred callback; the un-fsynced journal tail is
    // the page cache: lost.
    log.crash();
    for (auto &[id, s] : sessions)
        events.cancel(s.exchange.timer);
    // Volatile state dies: in-flight sessions, periodic tasks,
    // archives and dedup caches. The oat reference databases
    // (serverRefs, knownGoodImages) are on disk and survive.
    sessions.clear();
    periodic.clear();
    measurementArchive.clear();
    certCache.clear();
    forwardInFlight.clear();
    reportCache.clear();
    serverRtt.clear();
}

void
AttestationServer::restart()
{
    if (endpoint.attached())
        return;
    MONATT_LOG(Info, "as") << cfg.id << ": restart";
    endpoint.attach();
    // Lost dedup-cache entries only cost idempotency (a retransmitted
    // forward re-verifies instead of re-serving), never correctness.
    log.recover();
}

// --- Durability: WAL + recovery ---------------------------------------

proto::Snapshot
AttestationServer::snapshotState() const
{
    proto::Snapshot snap;
    // Both caches in FIFO order so eviction replays identically.
    for (const auto &[requestId, encoded] : reportCache)
        snap.add(JournalType::ReportRemember,
                 ReportRecord{requestId, encoded});
    for (const auto &[digest, avk] : certCache)
        snap.add(JournalType::CertInsert,
                 CertRecord{digest, avk.key().encode()});
    return snap;
}

void
AttestationServer::applyJournalRecord(const sim::JournalRecord &rec)
{
    switch (static_cast<JournalType>(rec.type)) {
      case JournalType::ReportRemember:
        if (auto r = proto::decode<ReportRecord>(rec.payload))
            rememberReport(r.value().requestId,
                           std::move(r.value().encoded));
        break;
      case JournalType::CertInsert:
        if (auto r = proto::decode<CertRecord>(rec.payload)) {
            auto avk = crypto::RsaPublicKey::decode(r.value().avk);
            if (avk)
                certCache.insert(r.value().digest,
                                 crypto::RsaPublicContext(avk.take()));
        }
        break;
    }
}

} // namespace monatt::attestation
