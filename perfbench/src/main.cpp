/**
 * @file
 * fleet_bench: one workload of the real-stack fleet benchmark.
 *
 *   fleet_bench --workload attest_cached --seed 7 --seconds 10 --trace 0
 *
 * With --trace 0 the run reports the end-to-end metrics; with
 * --trace 1 it reports the per-layer metrics of a traced run, the
 * unit costs of each layer, and writes the spans as Chrome trace JSON
 * (--trace-out). The last line of standard output is one JSON object:
 * the metrics, the determinism digest, the exact simulated metrics,
 * request accounting, the correctness verdict and run metadata.
 * perfbench/run.py builds the binary, runs it and applies the
 * cross-run checks.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "crypto/sha256.h"
#include "fleet.h"
#include "hostclock.h"
#include "replay.h"
#include "tracer.h"

using namespace monatt;
using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
};

bool
parseOptions(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            o.workload = value;
        else if (key == "--seed")
            o.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            o.seconds = std::strtod(value.c_str(), nullptr);
        else if (key == "--trace")
            o.trace = value == "1";
        else if (key == "--trace-out")
            o.traceOut = value;
        else
            return false;
    }
    return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0;
}

// Salts so each seeded choice draws from its own stream.
constexpr std::uint64_t kPlanSalt = 0x706c616e;
constexpr std::uint64_t kWarmSalt = 0x7761726d;
constexpr std::uint64_t kAttestSalt = 0x61747374;

/** Set-ups per run; setup_s and launch_per_s are their medians. */
constexpr int kSetups = 5;

/** Spans kept for the Chrome trace; later spans are counted only. */
constexpr std::size_t kMaxSpans = 200000;

/** Linear-interpolated quantile (q in [0, 1]); NaN when empty. */
double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return std::nan("");
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

/** Simulated latencies (ms) of the ok requests among the first `n`. */
std::vector<double>
simLatencies(const PhaseResult &p, std::size_t n)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < std::min(n, p.requests.size()); ++i) {
        if (p.requests[i].settle == Settle::Ok)
            out.push_back(toMillis(p.requests[i].simLatency));
    }
    return out;
}

/** Peak resident set of this process image, in MiB. VmHWM restarts at
 * exec; getrusage's ru_maxrss would also count the parent that forked
 * this process. */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    }
    std::fclose(f);
    return kib / 1024.0;
}

/** Cumulative counters of the stack, read from its public API. */
struct Counters
{
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t events = 0;
    std::uint64_t appends = 0;
    std::uint64_t syncs = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t aikSessions = 0;
    std::uint64_t certHits = 0;
    std::uint64_t certMisses = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t dedupDrops = 0;
    std::uint64_t journalBytes = 0;
    std::uint64_t journalRecords = 0;

    static Counters
    read(Fleet &fleet)
    {
        core::Cloud &cloud = fleet.cloud();
        Counters c;
        c.messages = cloud.network().stats().sent;
        c.bytes = cloud.network().stats().bytesSent;
        c.events = cloud.events().executed();
        auto addStore = [&c](const sim::StableStore &s) {
            c.appends += s.stats().appends;
            c.syncs += s.stats().syncs;
            c.checkpoints += s.stats().checkpoints;
            c.journalBytes += s.journalBytes();
            c.journalRecords += s.durableRecords();
        };
        controller::ControllerFabric &plane = cloud.controllerFabric();
        for (std::size_t i = 0; i < plane.numNodes(); ++i)
            addStore(plane.node(i).stableStore());
        for (std::size_t i = 0; i < cloud.numAttestationServers(); ++i) {
            attestation::AttestationServer &as = cloud.attestationServer(i);
            addStore(as.stableStore());
            c.certHits += as.stats().certCacheHits;
            c.certMisses += as.stats().certCacheMisses;
            c.retransmits += as.stats().measureRetries;
            c.dedupDrops += as.stats().duplicateForwards;
        }
        addStore(cloud.privacyCa().stableStore());
        c.aikSessions = cloud.privacyCa().issued();
        const controller::ControllerStats cs = plane.aggregateStats();
        c.retransmits += cs.forwardRetries +
                         fleet.customer().stats().requestRetries;
        c.dedupDrops += cs.duplicateAttestRequests;
        return c;
    }
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Everything one run measured. Times are raw HostClock readings. */
struct Report
{
    std::vector<double> setupStarts;
    std::vector<double> setupEnds;
    std::vector<PhaseResult> launches; //!< One per set-up.
    PhaseResult attests;               //!< The timed phase.
    /** VmHWM once the exact prefix settled: set-ups plus a fixed
     * number of attestations, however fast the host ran them. */
    double peakRssMb = 0;
    std::vector<double> launchSimMs;
    std::vector<double> attestSimMs;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t refused = 0; //!< Failed outcomes the customer reported.
    std::size_t expired = 0; //!< Requests that passed their deadline.
    crypto::Sha256 digest;
    std::vector<std::string> errors;
    std::vector<Metric> layers;

    void
    tally(const PhaseResult &p)
    {
        attempted += p.requests.size();
        failed += p.failedCount();
        refused += p.refused;
        expired += p.expired;
        errors.insert(errors.end(), p.errors.begin(), p.errors.end());
    }

    void
    layer(const std::string &name, double value, const char *unit)
    {
        layers.push_back({name, value, unit});
    }
};

/** Reference seconds a phase took. */
double
referenceSeconds(HostClock &clock, const PhaseResult &p)
{
    return clock.reference(p.endedAt) - clock.reference(p.startedAt);
}

/** Issue-to-settle latencies (reference ms) of a phase's ok requests. */
std::vector<double>
referenceLatencies(HostClock &clock, const PhaseResult &p)
{
    std::vector<double> out;
    for (const RequestRecord &r : p.requests) {
        if (r.settle == Settle::Ok)
            out.push_back((clock.reference(r.settledAt) -
                           clock.reference(r.issuedAt)) *
                          1e3);
    }
    return out;
}

/** Successes over attempts across phases. */
double
okRatio(const std::vector<const PhaseResult *> &phases)
{
    std::size_t ok = 0;
    std::size_t attempted = 0;
    for (const PhaseResult *p : phases) {
        ok += p->ok;
        attempted += p->requests.size();
    }
    return attempted > 0 ? static_cast<double>(ok) / attempted : 0;
}

bool
sameSimulation(const PhaseResult &a, const PhaseResult &b)
{
    if (a.digest != b.digest || a.requests.size() != b.requests.size())
        return false;
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        if (a.requests[i].simLatency != b.requests[i].simLatency ||
            a.requests[i].settle != b.requests[i].settle)
            return false;
    }
    return true;
}

/** Per-layer metrics of one traced phase of `ops` operations. */
void
reportLayers(Report &rep, Fleet &fleet, const Tracer &tracer,
             const Counters &before, const Counters &after,
             std::size_t ops, double tracedWall, double overhead,
             std::uint64_t seed)
{
    const double n = static_cast<double>(std::max<std::size_t>(ops, 1));
    double attributed = 0;
    std::printf("\nself time per attestation (traced phase, %zu ops, "
                "%.3f s):\n",
                ops, tracedWall);
    for (std::size_t m = 0; m < static_cast<std::size_t>(Module::Count);
         ++m) {
        const Module mod = static_cast<Module>(m);
        const double s = tracer.selfSeconds(mod);
        attributed += s;
        const std::string name = moduleName(mod);
        std::printf("  %-18s %10.4f ms/op  %5.1f%%\n", name.c_str(),
                    s * 1e3 / n, 100.0 * s / tracedWall);
        // "server.self_ms_per_op", but "attestation.as_self_ms_per_op".
        const bool dotted = name.find('.') != std::string::npos;
        rep.layer(name + (dotted ? "_" : ".") + "self_ms_per_op",
                  s * 1e3 / n, "ms");
    }
    const double coverage = attributed / tracedWall;
    std::printf("  %-18s %10.4f (traced / untraced time per op)\n",
                "trace.overhead", overhead);
    std::printf("  %-18s %10.4f (attributed / traced wall)\n",
                "trace.coverage", coverage);
    rep.layer("trace.overhead_ratio", overhead, "ratio");
    rep.layer("trace.coverage_ratio", coverage, "ratio");

    auto perOp = [&](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(b - a) / n;
    };
    rep.layer("net.msgs_per_op", perOp(before.messages, after.messages),
              "count");
    rep.layer("net.bytes_per_op", perOp(before.bytes, after.bytes), "B");
    rep.layer("controller.replication_bytes_per_op",
              static_cast<double>(tracer.replicationBytes()) / n, "B");
    rep.layer("sim.events_per_op", perOp(before.events, after.events),
              "count");
    rep.layer("sim.timer_events_per_op",
              static_cast<double>(tracer.timerEvents()) / n, "count");
    rep.layer("sim.journal_appends_per_op",
              perOp(before.appends, after.appends), "count");
    rep.layer("sim.journal_syncs_per_op", perOp(before.syncs, after.syncs),
              "count");
    rep.layer("sim.checkpoints_per_op",
              perOp(before.checkpoints, after.checkpoints), "count");
    rep.layer("tpm.aik_sessions_per_op",
              perOp(before.aikSessions, after.aikSessions), "count");
    const std::uint64_t lookups = (after.certHits - before.certHits) +
                                  (after.certMisses - before.certMisses);
    rep.layer("attestation.cert_cache_hit_ratio",
              lookups > 0 ? static_cast<double>(after.certHits -
                                                before.certHits) /
                                static_cast<double>(lookups)
                          : 0.0,
              "ratio");
    rep.layer("net.retransmits_per_op",
              perOp(before.retransmits, after.retransmits), "count");
    rep.layer("net.dedup_drops_per_op",
              perOp(before.dedupDrops, after.dedupDrops), "count");

    // Unit costs at this workload's shapes.
    ReplayShape shape;
    shape.aikBits = fleet.cloud().config().aikBits;
    shape.identityKeyBits = fleet.cloud().config().identityKeyBits;
    shape.wire = fleet.cloud().config().wire;
    shape.hopPayloadBytes = static_cast<std::size_t>(
        tracer.wireBytes() / std::max<std::uint64_t>(tracer.messages(), 1));
    shape.queueDepth = tracer.meanQueueDepth();
    shape.journalRecordBytes =
        after.journalRecords > 0
            ? static_cast<std::size_t>(after.journalBytes /
                                       after.journalRecords)
            : 64;
    shape.frames = operationFrames(fleet, shape.journalRecordBytes);
    const UnitCosts u = replayUnitCosts(shape, seed);
    std::printf("\nunit costs (hop %zu B, queue depth %zu, journal record "
                "%zu B, %zu-message mix):\n",
                shape.hopPayloadBytes, shape.queueDepth,
                shape.journalRecordBytes, shape.frames.size());
    std::printf("  keygen %.3f ms  sign %.2f us  verify %.2f us  record "
                "%.2f us  codec %.2f us  event %.1f ns  journal %.3f us\n",
                u.keygenMs, u.signUs, u.verifyUs, u.recordUs, u.codecUs,
                u.eventNs, u.journalAppendUs);
    rep.layer("crypto.keygen_ms", u.keygenMs, "ms");
    rep.layer("crypto.sign_us", u.signUs, "us");
    rep.layer("crypto.verify_us", u.verifyUs, "us");
    rep.layer("net.record_us", u.recordUs, "us");
    rep.layer("proto.codec_us", u.codecUs, "us");
    rep.layer("sim.event_ns", u.eventNs, "ns");
    rep.layer("sim.journal_append_us", u.journalAppendUs, "us");
}

void
runAttestWorkload(const Workload &w, const Options &o, HostClock &clock,
                  Report &rep)
{
    Rng planRng(o.seed ^ kPlanSalt);
    const std::vector<LaunchSpec> plan = launchPlan(
        static_cast<std::size_t>(w.servers * w.vmsPerServer), planRng);

    // Set-up: construction, fleet launch and warm-up, several times.
    // Construction runs no loop, so probes bracket each set-up.
    std::unique_ptr<Fleet> fleet;
    for (int k = 0; k < kSetups; ++k) {
        fleet.reset();
        clock.probe();
        rep.setupStarts.push_back(clock.mark());
        fleet = std::make_unique<Fleet>(w, o.seed, clock);
        PhaseResult launched = fleet->launch(plan, w.callers);
        Rng warmRng(o.seed ^ kWarmSalt);
        LoopLimits warm;
        warm.callers = w.callers;
        warm.maxRequests = fleet->vids().size();
        const PhaseResult warmed = fleet->attest(warm, warmRng);
        rep.setupEnds.push_back(clock.mark());
        clock.probe();

        rep.tally(launched);
        rep.tally(warmed);
        if (k > 0 && !sameSimulation(launched, rep.launches.front()))
            rep.errors.push_back("repeated set-up differs at one seed");
        rep.launches.push_back(std::move(launched));
    }
    rep.launchSimMs = simLatencies(rep.launches.front(), plan.size());
    rep.digest.update(rep.launches.front().digest);

    Rng attestRng(o.seed ^ kAttestSalt);
    LoopLimits timed;
    timed.callers = w.callers;
    timed.prefix = w.prefix;
    timed.digestLimit = w.prefix;
    timed.wallBudgetSeconds = o.trace ? o.seconds / 2 : o.seconds;
    timed.onPrefixSettled = [&rep] { rep.peakRssMb = peakRssMb(); };
    rep.attests = fleet->attest(timed, attestRng);
    rep.tally(rep.attests);
    rep.attestSimMs = simLatencies(rep.attests, w.prefix);
    rep.digest.update(rep.attests.digest);

    if (!o.trace)
        return;
    const Counters before = Counters::read(*fleet);
    Tracer tracer(fleet->cloud().network(), fleet->cloud().events(),
                  kMaxSpans);
    LoopLimits tracedLimits;
    tracedLimits.callers = w.callers;
    tracedLimits.wallBudgetSeconds = o.seconds / 2;
    const PhaseResult traced = fleet->attest(tracedLimits, attestRng,
                                             &tracer);
    const Counters after = Counters::read(*fleet);
    rep.tally(traced);
    if (!o.traceOut.empty() && !tracer.writeChromeTrace(o.traceOut))
        rep.errors.push_back("could not write " + o.traceOut);
    const double overhead =
        (referenceSeconds(clock, traced) /
         static_cast<double>(traced.requests.size())) /
        (referenceSeconds(clock, rep.attests) /
         static_cast<double>(rep.attests.requests.size()));
    reportLayers(rep, *fleet, tracer, before, after, traced.requests.size(),
                 traced.endedAt - traced.startedAt, overhead, o.seed);
}

std::string
jsonMetrics(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[32] = "null";
        if (std::isfinite(metrics[i].value))
            std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                      metrics[i].unit);
        out += buf;
    }
    return out + "}";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseOptions(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: fleet_bench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--trace-out PATH]\n");
        return 2;
    }
    const Workload *w = findWorkload(o.workload);
    if (w == nullptr) {
        std::fprintf(stderr, "fleet_bench: unknown workload %s\n",
                     o.workload.c_str());
        return 2;
    }

    HostClock clock;
    Report rep;
    try {
        runAttestWorkload(*w, o, clock, rep);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fleet_bench: %s\n", e.what());
        return 1;
    }

    // The wires are clean, so every failure is an error.
    if (rep.failed > 0)
        rep.errors.push_back("requests failed");
    if (rep.attestSimMs.empty() || rep.launchSimMs.empty())
        rep.errors.push_back("no successful request to measure");
    if (rep.errors.empty() && rep.attempted == 0)
        rep.errors.push_back("nothing attempted");

    const std::vector<Metric> exact = {
        {"attest_sim_p50_ms", quantile(rep.attestSimMs, 0.50), "ms"},
        {"attest_sim_p99_ms", quantile(rep.attestSimMs, 0.99), "ms"},
        {"launch_sim_p50_ms", quantile(rep.launchSimMs, 0.50), "ms"},
        {"launch_sim_p99_ms", quantile(rep.launchSimMs, 0.99), "ms"},
    };
    // Wall figures in reference seconds (hostclock.h).
    const std::vector<double> attestMs =
        referenceLatencies(clock, rep.attests);
    const double attestPerS =
        static_cast<double>(rep.attests.ok) /
        referenceSeconds(clock, rep.attests);
    std::vector<double> setupSeconds;
    std::vector<double> launchRates;
    std::vector<const PhaseResult *> launchPhases;
    for (std::size_t k = 0; k < rep.launches.size(); ++k) {
        setupSeconds.push_back(clock.reference(rep.setupEnds[k]) -
                               clock.reference(rep.setupStarts[k]));
        launchRates.push_back(
            static_cast<double>(rep.launches[k].ok) /
            referenceSeconds(clock, rep.launches[k]));
        launchPhases.push_back(&rep.launches[k]);
    }
    const double attestOkRatio = okRatio({&rep.attests});
    const double launchOkRatio = okRatio(launchPhases);

    std::vector<Metric> metrics;
    if (!o.trace) {
        metrics = {
            {"attest_per_s", attestPerS, "1/s"},
            {"attest_wall_p99_ms", quantile(attestMs, 0.99), "ms"},
        };
        metrics.insert(metrics.end(), exact.begin(), exact.end());
        metrics.push_back({"attest_ok_ratio", attestOkRatio, "ratio"});
        metrics.push_back({"launch_ok_ratio", launchOkRatio, "ratio"});
        metrics.push_back({"setup_s", quantile(setupSeconds, 0.5), "s"});
        metrics.push_back({"peak_rss_mb", rep.peakRssMb, "MB"});
    } else {
        metrics.push_back(
            {"launch_per_s", quantile(launchRates, 0.5), "1/s"});
        metrics.push_back(
            {"attest_wall_p50_ms", quantile(attestMs, 0.5), "ms"});
        metrics.push_back(
            {"attest_fail_ratio", 1.0 - attestOkRatio, "ratio"});
        metrics.push_back(
            {"launch_fail_ratio", 1.0 - launchOkRatio, "ratio"});
        metrics.insert(metrics.end(), rep.layers.begin(), rep.layers.end());
    }
    for (const Metric &m : metrics) {
        if (!std::isfinite(m.value))
            rep.errors.push_back("metric " + m.name + " is not finite");
    }

    std::string errors = "[";
    for (std::size_t i = 0; i < rep.errors.size(); ++i)
        errors += (i == 0 ? "" : ", ") + jsonString(rep.errors[i]);
    errors += "]";
    const char *threads = std::getenv("MONATT_THREADS");
    std::printf(
        "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"trace\": %d, "
        "\"correct\": %s, \"errors\": %s, \"attempted\": %zu, "
        "\"failed\": %zu, \"refused\": %zu, \"expired\": %zu, "
        "\"digest\": \"%s\", \"exact\": %s, "
        "\"metrics\": %s, \"metadata\": {\"pool_width\": %s, "
        "\"build_type\": \"%s\", \"compiler\": %s, \"nproc\": %u, "
        "\"host_speed\": %.4f, \"probes\": %zu, "
        "\"attest_per_wall_s\": %.3f, \"attest_wall_samples\": %zu, "
        "\"attest_sim_samples\": %zu, "
        "\"launch_samples\": %zu}}\n",
        w->name, o.seed, o.trace ? 1 : 0,
        rep.errors.empty() ? "true" : "false", errors.c_str(),
        rep.attempted, rep.failed, rep.refused, rep.expired,
        toHex(rep.digest.digest()).c_str(),
        jsonMetrics(exact).c_str(), jsonMetrics(metrics).c_str(),
        jsonString(threads != nullptr ? threads : "unset").c_str(),
        PERFBENCH_BUILD_TYPE, jsonString("gcc " __VERSION__).c_str(),
        std::thread::hardware_concurrency(), clock.meanSpeed(),
        clock.probes(),
        static_cast<double>(rep.attests.ok) /
            (rep.attests.endedAt - rep.attests.startedAt),
        attestMs.size(), rep.attestSimMs.size(), rep.launchSimMs.size());
    return 0;
}
