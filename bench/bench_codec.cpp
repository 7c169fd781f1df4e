/**
 * @file
 * Codec micro-bench: the declared wire codec (DESIGN.md §17) over one
 * corpus of representative protocol messages. Reports, per message
 * type and in total:
 *
 *   - bytes on the simulated wire (framed size) — these feed
 *     Network::transferTime, so they are behavioral metrics and are
 *     hard-gated against bench/baselines/codec/;
 *   - host-side encode/decode ns per op (wall_* metrics, warn-only in
 *     the perf gate: runner-dependent).
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "proto/messages.h"

using namespace monatt;
using namespace monatt::bench;

namespace
{

/** One corpus entry: a message with its frame pre-built. */
struct Sample
{
    std::string name;
    Bytes frame; //!< packFor(latest, kind, msg)
    double wallEncodeNs = 0;
    double wallDecodeNs = 0;
};

/** ns/op of `fn` over enough iterations to be stable for a smoke run. */
template <typename Fn>
double
nsPerOp(Fn &&fn)
{
    constexpr int kIters = 20000;
    // Warm-up round keeps first-touch allocation out of the measurement.
    for (int i = 0; i < 64; ++i)
        fn();
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i)
        fn();
    const auto d = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::nano>(d).count() / kIters;
}

template <typename M>
Sample
makeSample(const std::string &name, proto::MessageKind kind, const M &m)
{
    Sample s;
    s.name = name;
    const Bytes body = proto::encode(m);
    s.frame = proto::packMessage(kind, body);
    s.wallEncodeNs = nsPerOp([&] {
        Bytes b = proto::encode(m);
        (void)b;
    });
    s.wallDecodeNs = nsPerOp([&] {
        auto r = proto::decode<M>(body);
        (void)r;
    });
    return s;
}

proto::MeasurementSet
sampleMeasurements()
{
    proto::MeasurementSet set;
    proto::Measurement tasks;
    tasks.type = proto::MeasurementType::TaskListVmi;
    tasks.strings = {"init", "sshd", "crond", "qemu-ga"};
    set.items.push_back(tasks);
    proto::Measurement hist;
    hist.type = proto::MeasurementType::UsageIntervalHistogram;
    hist.values.assign(30, 7);
    hist.windowLength = seconds(2);
    set.items.push_back(hist);
    proto::Measurement pcrs;
    pcrs.type = proto::MeasurementType::PlatformPcrs;
    pcrs.digest = Bytes(24 * 20, 0x5a);
    set.items.push_back(pcrs);
    return set;
}

proto::AttestationReport
sampleReport()
{
    proto::AttestationReport r;
    r.vid = "vm-17";
    for (proto::SecurityProperty p : proto::allProperties()) {
        proto::PropertyResult pr;
        pr.property = p;
        pr.status = proto::HealthStatus::Healthy;
        r.results.push_back(pr);
    }
    r.issuedAt = seconds(42);
    return r;
}

/**
 * Representative protocol mix: the full attestation chain C→D→A→M and
 * back, one launch command, one migration, one replication batch.
 */
std::vector<Sample>
buildCorpus()
{
    std::vector<Sample> corpus;

    proto::AttestRequest areq;
    areq.requestId = 17;
    areq.vid = "vm-17";
    areq.properties = proto::allProperties();
    areq.nonce1 = Bytes(16, 0x11);
    corpus.push_back(makeSample("AttestRequest",
                                proto::MessageKind::AttestRequest, areq));

    proto::AttestForward fwd;
    fwd.requestId = 17;
    fwd.vid = "vm-17";
    fwd.serverId = "server-3";
    fwd.properties = proto::allProperties();
    fwd.nonce2 = Bytes(16, 0x22);
    corpus.push_back(makeSample("AttestForward",
                                proto::MessageKind::AttestForward, fwd));

    proto::MeasureRequest mreq;
    mreq.requestId = 17;
    mreq.vid = "vm-17";
    mreq.rm = {proto::MeasurementType::PlatformPcrs,
               proto::MeasurementType::TaskListVmi,
               proto::MeasurementType::UsageIntervalHistogram};
    mreq.nonce3 = Bytes(16, 0x33);
    mreq.window = seconds(2);
    corpus.push_back(makeSample("MeasureRequest",
                                proto::MessageKind::MeasureRequest, mreq));

    proto::MeasureResponse mresp;
    mresp.requestId = 17;
    mresp.vid = "vm-17";
    mresp.rm = mreq.rm;
    mresp.m = sampleMeasurements();
    mresp.nonce3 = mreq.nonce3;
    mresp.quote3 = proto::MeasureResponse::quoteInput(
        mresp.vid, mresp.rm, mresp.m, mresp.nonce3);
    mresp.signature = Bytes(64, 0x44);
    mresp.certificate = Bytes(180, 0x55);
    corpus.push_back(makeSample(
        "MeasureResponse", proto::MessageKind::MeasureResponse, mresp));

    proto::ReportToController rtc;
    rtc.requestId = 17;
    rtc.vid = "vm-17";
    rtc.serverId = "server-3";
    rtc.properties = proto::allProperties();
    rtc.report = sampleReport();
    rtc.nonce2 = fwd.nonce2;
    rtc.quote2 = proto::ReportToController::quoteInput(
        rtc.vid, rtc.serverId, rtc.properties, rtc.report, rtc.nonce2);
    rtc.signature = Bytes(64, 0x66);
    corpus.push_back(makeSample("ReportToController",
                                proto::MessageKind::ReportToController,
                                rtc));

    proto::ReportToCustomer rtcu;
    rtcu.requestId = 17;
    rtcu.vid = "vm-17";
    rtcu.properties = proto::allProperties();
    rtcu.report = rtc.report;
    rtcu.nonce1 = areq.nonce1;
    rtcu.quote1 = proto::ReportToCustomer::quoteInput(
        rtcu.vid, rtcu.properties, rtcu.report, rtcu.nonce1);
    rtcu.signature = Bytes(64, 0x77);
    corpus.push_back(makeSample("ReportToCustomer",
                                proto::MessageKind::ReportToCustomer,
                                rtcu));

    proto::LaunchVm launch;
    launch.vid = "vm-17";
    launch.name = "web-frontend";
    launch.numVcpus = 2;
    launch.ramMb = 2048;
    launch.diskGb = 20;
    launch.imageSizeMb = 230;
    launch.image = Bytes(256, 0x88);
    corpus.push_back(makeSample("LaunchVm", proto::MessageKind::LaunchVm,
                                launch));

    proto::MigrateIn mig;
    mig.vid = "vm-17";
    mig.name = "web-frontend";
    mig.numVcpus = 2;
    mig.ramMb = 2048;
    mig.diskGb = 20;
    mig.imageSizeMb = 230;
    mig.image = Bytes(256, 0x88);
    mig.guestTasks = {"init", "sshd", "crond", "qemu-ga"};
    corpus.push_back(makeSample("MigrateIn",
                                proto::MessageKind::MigrateIn, mig));

    proto::ReplicateEntries rep;
    rep.round = 3;
    rep.leaderId = "cloud-controller";
    rep.prevLsn = 100;
    rep.commitLsn = 104;
    for (int i = 0; i < 5; ++i) {
        proto::ReplicatedRecord rec;
        rec.lsn = 101 + static_cast<std::uint64_t>(i);
        rec.type = 2;
        rec.payload = Bytes(48, static_cast<std::uint8_t>(i));
        rep.records.push_back(rec);
    }
    corpus.push_back(makeSample("ReplicateEntries",
                                proto::MessageKind::ReplicateEntries,
                                rep));

    return corpus;
}

} // namespace

int
main()
{
    banner("Codec",
           "Declared wire codec: framed bytes on the simulated wire and "
           "host encode/decode cost per message type.");

    const std::vector<Sample> corpus = buildCorpus();

    row("message", {"frame B", "enc ns", "dec ns"}, 20, 11);
    std::size_t total = 0;
    for (const Sample &s : corpus) {
        total += s.frame.size();
        row(s.name,
            {std::to_string(s.frame.size()), fmt("%.0f", s.wallEncodeNs),
             fmt("%.0f", s.wallDecodeNs)},
            20, 11);
    }
    row("TOTAL", {std::to_string(total), "", ""}, 20, 11);

    std::FILE *f = std::fopen("BENCH_codec.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_codec.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"codec\",\n  \"messages\": [\n");
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const Sample &s = corpus[i];
        std::fprintf(f,
                     "    {\"message\": \"%s\", \"tagged_frame_bytes\": %zu, "
                     "\"wall_encode_ns\": %.1f, \"wall_decode_ns\": %.1f}%s\n",
                     s.name.c_str(), s.frame.size(), s.wallEncodeNs,
                     s.wallDecodeNs, i + 1 < corpus.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"totals\": {\"tagged_frame_bytes\": %zu},\n"
                 "  \"metadata\": %s\n"
                 "}\n",
                 total, metadataJson().c_str());
    std::fclose(f);
    std::printf("\nwrote BENCH_codec.json\n");
    return 0;
}
