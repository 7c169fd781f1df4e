#include "replay.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <stdexcept>

#include "common/rng.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "fleet.h"
#include "net/secure_channel.h"
#include "proto/messages.h"
#include "sim/event_queue.h"
#include "sim/stable_store.h"
#include "tpm/certificate.h"

using namespace monatt;

namespace perfbench
{

namespace
{

using ReplayClock = std::chrono::steady_clock;

/** Median over `batches` timings of `perBatch` calls, per call. */
template <typename Fn>
double
medianSecondsPerCall(int batches, int perBatch, Fn &&fn)
{
    std::vector<double> samples;
    for (int b = 0; b < batches; ++b) {
        const auto start = ReplayClock::now();
        for (int i = 0; i < perBatch; ++i)
            fn();
        const std::chrono::duration<double> d = ReplayClock::now() - start;
        samples.push_back(d.count() / perBatch);
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

template <typename M>
void
append(std::vector<Bytes> &frames, const proto::WireContext &wire,
       proto::MessageKind kind, const M &msg)
{
    frames.push_back(proto::packFor(wire, kind, msg));
}

/** Decode a frame and encode the message again, as a hop does. */
template <typename M>
Bytes
roundTrip(const proto::WireContext &wire, const proto::UnpackedMessage &u)
{
    auto msg = proto::decodeAs<M>(u.format, u.body);
    if (!msg)
        throw std::runtime_error("codec replay: frame does not decode");
    return proto::packFor(wire, u.kind, msg.value());
}

Bytes
recode(const proto::WireContext &wire, const Bytes &frame)
{
    using K = proto::MessageKind;
    auto unpacked = proto::unpackMessage(frame);
    if (!unpacked)
        throw std::runtime_error("codec replay: frame does not unpack");
    const proto::UnpackedMessage &u = unpacked.value();
    switch (u.kind) {
      case K::AttestRequest:
        return roundTrip<proto::AttestRequest>(wire, u);
      case K::AttestForward:
        return roundTrip<proto::AttestForward>(wire, u);
      case K::MeasureRequest:
        return roundTrip<proto::MeasureRequest>(wire, u);
      case K::MeasureResponse:
        return roundTrip<proto::MeasureResponse>(wire, u);
      case K::ReportToController:
        return roundTrip<proto::ReportToController>(wire, u);
      case K::ReportToCustomer:
        return roundTrip<proto::ReportToCustomer>(wire, u);
      case K::CertRequest:
        return roundTrip<proto::CertRequest>(wire, u);
      case K::CertResponse:
        return roundTrip<proto::CertResponse>(wire, u);
      case K::ReplicateEntries:
        return roundTrip<proto::ReplicateEntries>(wire, u);
      case K::ReplicateAck:
        return roundTrip<proto::ReplicateAck>(wire, u);
      default:
        throw std::runtime_error("codec replay: kind not in the mix");
    }
}

} // namespace

std::vector<Bytes>
operationFrames(Fleet &fleet, std::size_t journalRecordBytes)
{
    core::Cloud &cloud = fleet.cloud();
    const proto::WireContext &wire = cloud.config().wire;
    const std::size_t sigBytes = cloud.config().identityKeyBits / 8;
    Rng rng(cloud.config().seed);
    std::vector<Bytes> frames;

    const std::string &vid = fleet.vids().front();
    const server::CloudServer *host = cloud.serverHosting(vid);
    const std::string serverId = host != nullptr ? host->id() : "server-1";

    const core::VerifiedReport *verified =
        fleet.customer().lastReportFor(vid);
    if (verified == nullptr)
        throw std::runtime_error("codec replay: no verified report");
    const std::vector<proto::SecurityProperty> &props = verified->properties;

    proto::AttestRequest req;
    req.requestId = 1;
    req.vid = vid;
    req.properties = props;
    req.nonce1 = rng.nextBytes(16);
    append(frames, wire, proto::MessageKind::AttestRequest, req);

    proto::AttestForward fwd;
    fwd.requestId = 1;
    fwd.vid = vid;
    fwd.serverId = serverId;
    fwd.properties = props;
    fwd.nonce2 = rng.nextBytes(16);
    append(frames, wire, proto::MessageKind::AttestForward, fwd);

    std::set<proto::MeasurementType> types;
    for (proto::SecurityProperty p : props) {
        for (proto::MeasurementType t : proto::measurementsForProperty(p))
            types.insert(t);
    }
    proto::MeasureRequest measure;
    measure.requestId = 1;
    measure.vid = vid;
    measure.rm.assign(types.begin(), types.end());
    measure.nonce3 = rng.nextBytes(16);
    measure.window = cloud.config().timing.runtimeWindow;
    append(frames, wire, proto::MessageKind::MeasureRequest, measure);

    const crypto::RsaKeyPair avk =
        crypto::rsaGenerateKeyPair(cloud.config().aikBits, rng);
    tpm::Certificate cert;
    cert.subject = "aik-session-1";
    cert.subjectKey = avk.pub.encode();
    cert.issuer = "privacy-ca";
    cert.serial = 1;
    cert.signature = rng.nextBytes(sigBytes);

    proto::CertRequest certReq;
    certReq.serverId = serverId;
    certReq.sessionLabel = cert.subject;
    certReq.avk = cert.subjectKey;
    certReq.avkSignature = rng.nextBytes(sigBytes);
    append(frames, wire, proto::MessageKind::CertRequest, certReq);

    proto::CertResponse certResp;
    certResp.sessionLabel = cert.subject;
    certResp.ok = true;
    certResp.certificate = cert.encode();
    append(frames, wire, proto::MessageKind::CertResponse, certResp);

    proto::MeasureResponse mresp;
    mresp.requestId = 1;
    mresp.vid = vid;
    mresp.rm = measure.rm;
    if (const proto::MeasurementSet *m =
            cloud.attestationServer().lastMeasurements(vid))
        mresp.m = *m;
    mresp.nonce3 = measure.nonce3;
    mresp.quote3 = rng.nextBytes(32);
    mresp.signature = rng.nextBytes(cloud.config().aikBits / 8);
    mresp.certificate = certResp.certificate;
    append(frames, wire, proto::MessageKind::MeasureResponse, mresp);

    proto::ReportToController toController;
    toController.requestId = 1;
    toController.vid = vid;
    toController.serverId = serverId;
    toController.properties = props;
    toController.report = verified->report;
    toController.nonce2 = fwd.nonce2;
    toController.quote2 = rng.nextBytes(32);
    toController.signature = rng.nextBytes(sigBytes);
    append(frames, wire, proto::MessageKind::ReportToController,
           toController);

    proto::ReportToCustomer toCustomer;
    toCustomer.requestId = 1;
    toCustomer.vid = vid;
    toCustomer.properties = props;
    toCustomer.report = verified->report;
    toCustomer.nonce1 = req.nonce1;
    toCustomer.quote1 = rng.nextBytes(32);
    toCustomer.signature = rng.nextBytes(sigBytes);
    append(frames, wire, proto::MessageKind::ReportToCustomer, toCustomer);

    if (cloud.config().controllerReplicas > 1) {
        proto::ReplicateEntries entries;
        entries.round = 1;
        entries.leaderId = "cloud-controller";
        entries.prevLsn = 100;
        entries.records.push_back({101, 1, rng.nextBytes(journalRecordBytes)});
        entries.commitLsn = 100;
        append(frames, wire, proto::MessageKind::ReplicateEntries, entries);

        proto::ReplicateAck ack;
        ack.round = 1;
        ack.lastLsn = 101;
        append(frames, wire, proto::MessageKind::ReplicateAck, ack);
    }
    return frames;
}

UnitCosts
replayUnitCosts(const ReplayShape &shape, std::uint64_t seed)
{
    UnitCosts costs;
    Rng rng(seed);

    // Keygen: one fresh AVK pair per call, as the Trust Module does.
    crypto::RsaKeyPair key;
    costs.keygenMs =
        medianSecondsPerCall(3, 4,
                             [&] {
                                 key = crypto::rsaGenerateKeyPair(
                                     shape.aikBits, rng);
                             }) *
        1e3;

    // Sign / verify through compiled contexts over a quote-sized input.
    const crypto::RsaKeyPair identity =
        crypto::rsaGenerateKeyPair(shape.identityKeyBits, rng);
    const crypto::RsaPrivateContext privCtx(identity.priv);
    const crypto::RsaPublicContext pubCtx(identity.pub);
    const Bytes message = rng.nextBytes(256);
    Bytes signature;
    costs.signUs = medianSecondsPerCall(
                       5, 200,
                       [&] { signature = crypto::rsaSign(privCtx, message); }) *
                   1e6;
    bool verified = true;
    costs.verifyUs =
        medianSecondsPerCall(5, 200,
                             [&] {
                                 verified = verified &&
                                            crypto::rsaVerify(
                                                pubCtx, message, signature);
                             }) *
        1e6;
    if (!verified)
        throw std::runtime_error("replay: signature did not verify");

    // Channel record: seal on one side, open on the other.
    crypto::HmacDrbg clientDrbg(rng.nextBytes(32));
    crypto::HmacDrbg serverDrbg(rng.nextBytes(32));
    net::ClientHandshake client("replay-client", "replay-server", key,
                                identity.pub, clientDrbg);
    net::ServerHandshake server("replay-server", identity, serverDrbg);
    auto accepted = server.accept(client.helloMessage(), key.pub);
    if (!accepted)
        throw std::runtime_error("replay: handshake rejected");
    auto clientChannel = client.finish(accepted.value().reply);
    if (!clientChannel)
        throw std::runtime_error("replay: handshake did not finish");
    net::SecureChannel sender = clientChannel.take();
    net::SecureChannel receiver = accepted.value().channel;
    const Bytes payload = rng.nextBytes(shape.hopPayloadBytes);
    bool opened = true;
    costs.recordUs = medianSecondsPerCall(5, 400,
                                          [&] {
                                              opened = opened &&
                                                       receiver
                                                           .open(sender.seal(
                                                               payload))
                                                           .isOk();
                                          }) *
                     1e6;
    if (!opened)
        throw std::runtime_error("replay: record did not open");

    // Codec: every message of one operation, per message.
    std::size_t recoded = 0;
    const int perBatch = 100;
    costs.codecUs = medianSecondsPerCall(5, perBatch,
                                         [&] {
                                             for (const Bytes &f :
                                                  shape.frames)
                                                 recoded +=
                                                     recode(shape.wire, f)
                                                         .size();
                                         }) *
                    1e6 / static_cast<double>(shape.frames.size());
    if (recoded == 0)
        throw std::runtime_error("replay: codec produced nothing");

    // Event kernel: schedule + runOne at the observed queue depth.
    sim::EventQueue queue;
    std::uint64_t fired = 0;
    const SimTime horizon = seconds(1);
    for (std::size_t i = 0; i < std::max<std::size_t>(shape.queueDepth, 1);
         ++i) {
        queue.schedule(static_cast<SimTime>(rng.nextBounded(horizon)),
                       [&fired] { ++fired; });
    }
    costs.eventNs =
        medianSecondsPerCall(
            5, 20000,
            [&] {
                queue.scheduleAfter(
                    static_cast<SimTime>(rng.nextBounded(horizon)),
                    [&fired] { ++fired; });
                queue.runOne();
            }) *
        1e9;

    // Journal: append + sync of a mean-sized record.
    sim::StableStore store("replay");
    const Bytes record = rng.nextBytes(shape.journalRecordBytes);
    costs.journalAppendUs = medianSecondsPerCall(5, 2000,
                                                 [&] {
                                                     store.append(1, record);
                                                     store.sync();
                                                 }) *
                            1e6;
    return costs;
}

} // namespace perfbench
