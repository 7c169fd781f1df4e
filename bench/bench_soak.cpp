/**
 * @file
 * Million-VM soak: event-kernel and allocation hot-path throughput.
 *
 * Two legs, one binary:
 *
 *  1. Kernel A/B. The identical timer workload — periodic attestation
 *     timers with a retransmission timer armed at every firing and
 *     cancelled at the next, plus a defensive self-cancel of the id
 *     that just fired — runs through the pre-overhaul kernel
 *     (bench/legacy_event_queue.h: std::priority_queue of fat events,
 *     heap-allocating std::function callbacks, tombstone-set cancel)
 *     and through the production sim::EventQueue (flat 4-ary indexed
 *     heap, inline callbacks, generation ids). Captures are padded
 *     past std::function's small-buffer limit, as the codebase's real
 *     timers are. Both legs fold an execution-trace digest; the legs
 *     must match bit-for-bit, and the acceptance floor is
 *     MONATT_SOAK_MIN_SPEEDUP (default 2x) on wall-clock events/sec.
 *
 *  2. Fleet soak. MONATT_SOAK_VMS virtual machines (default 1,000,000)
 *     launch in batch-journaled waves into the real CloudDatabase,
 *     then run MONATT_SOAK_ROUNDS periodic attestation rounds over the
 *     real Network fabric (request -> measurement -> response, with a
 *     retransmission timer cancelled by each response) against the
 *     real StableStore write-ahead journal (appendMany group commits,
 *     checkpoint per round). Reports wall-clock events/sec, peak RSS
 *     and the simulated makespan.
 *
 * Emits BENCH_soak.json. Simulated metrics are deterministic for a
 * fixed VM count and are gated against bench/baselines/soak/; wall_*
 * metrics are runner-dependent and warn-only in the regression gate.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_util.h"
#include "controller/database.h"
#include "legacy_event_queue.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "sim/stable_store.h"

using namespace monatt;

namespace
{

// --- Small helpers -----------------------------------------------------

std::int64_t
envInt64(const char *name, std::int64_t fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0' ? std::atoll(v) : fallback;
}

double
envDouble(const char *name, double fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0' ? std::atof(v) : fallback;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/** FNV-1a fold of one 64-bit value into a running trace digest. */
void
fold(std::uint64_t &digest, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        digest ^= (value >> (8 * i)) & 0xff;
        digest *= kFnvPrime;
    }
}

void
putU64(Bytes &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t
getU64(const Bytes &in, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(in[at + i]) << (8 * i);
    return v;
}

/** Deterministic per-VM jitter (Knuth multiplicative hash). */
SimTime
jitterOf(std::uint64_t vm, SimTime window)
{
    return static_cast<SimTime>((vm * 2654435761ull) %
                                static_cast<std::uint64_t>(window));
}

// --- Leg 1: kernel A/B -------------------------------------------------

constexpr SimTime kKernelPeriod = seconds(30);
constexpr SimTime kKernelRetransmit = seconds(45);
constexpr SimTime kKernelJitter = seconds(10);

/**
 * The timer workload, templated over the queue under test. Each timer
 * fires `rounds` times; every firing folds (now, timer, round) into
 * the trace digest, defensively cancels its own just-fired id (the
 * legacy kernel leaks a tombstone per such cancel), cancels the
 * previous round's still-pending retransmission timer, arms the next
 * one, and schedules the next round. The final round's retransmission
 * timers are left to fire so both kernels drain identically.
 */
template <typename Queue>
struct KernelLeg
{
    Queue queue;
    std::vector<std::uint64_t> attestId;
    std::vector<std::uint64_t> retransmitId;
    std::uint64_t digest = kFnvOffset;
    int rounds = 0;

    void
    fire(std::uint64_t timer, std::uint32_t round, std::uint64_t salt)
    {
        // One fold per firing: (time, timer, round, salt) mixed into a
        // single word so the digest work stays small next to the
        // kernel work being measured.
        fold(digest, static_cast<std::uint64_t>(queue.now()) ^
                         (timer * kFnvPrime) ^ round ^ salt);
        queue.cancel(attestId[timer]); // Already fired: must be a no-op.
        if (retransmitId[timer] != 0)
            queue.cancel(retransmitId[timer]);
        KernelLeg *self = this;
        retransmitId[timer] = queue.scheduleAfter(
            kKernelRetransmit,
            [self, timer, round, salt] {
                fold(self->digest,
                     static_cast<std::uint64_t>(self->queue.now()) ^
                         (timer * kFnvPrime) ^ (0xdead0000ull + round) ^
                         salt);
            },
            "soak.kernel.retx");
        if (static_cast<int>(round) + 1 < rounds) {
            attestId[timer] = queue.scheduleAfter(
                kKernelPeriod,
                [self, timer, round, salt] {
                    self->fire(timer, round + 1, salt);
                },
                "soak.kernel.attest");
        }
    }
};

struct KernelLegResult
{
    double wallSeconds = 0;
    double eventsPerSec = 0;
    std::uint64_t executed = 0;
    std::uint64_t digest = 0;
    std::uint64_t tombstones = 0;
};

template <typename Queue>
KernelLegResult
runKernelLeg(std::uint64_t timers, int rounds)
{
    auto leg = std::make_unique<KernelLeg<Queue>>();
    leg->rounds = rounds;
    leg->attestId.assign(timers, 0);
    leg->retransmitId.assign(timers, 0);

    bench::WallTimer timer;
    KernelLeg<Queue> *self = leg.get();
    for (std::uint64_t i = 0; i < timers; ++i) {
        // The capture (pointer + three 64-bit values) is 32 bytes —
        // over std::function's inline limit, the shape of every real
        // timer in the codebase, and within InlineFunction<48>.
        const std::uint64_t salt = i * 0x9e3779b97f4a7c15ull;
        leg->attestId[i] = leg->queue.schedule(
            kKernelPeriod + jitterOf(i, kKernelJitter),
            [self, i, salt, rounds] {
                (void)rounds;
                self->fire(i, 0, salt);
            },
            "soak.kernel.attest");
    }
    leg->queue.runAll();

    KernelLegResult r;
    r.wallSeconds = timer.elapsedSeconds();
    r.executed = leg->queue.executed();
    r.eventsPerSec =
        r.wallSeconds > 0 ? static_cast<double>(r.executed) / r.wallSeconds
                          : 0;
    r.digest = leg->digest;
    if constexpr (std::is_same_v<Queue, bench::LegacyEventQueue>)
        r.tombstones = leg->queue.tombstones();
    return r;
}

// --- Leg 2: fleet soak -------------------------------------------------

constexpr SimTime kAttestPeriod = seconds(30);
constexpr SimTime kAttestJitter = seconds(10);
constexpr SimTime kRetransmitTimeout = msec(250);
constexpr SimTime kMeasureDelay = msec(5);
constexpr SimTime kWaveGap = msec(2);
constexpr std::uint64_t kWaveSize = 4096;
constexpr std::size_t kCompletionFlush = 2048;

constexpr std::uint16_t kJournalVmLaunched = 1;
constexpr std::uint16_t kJournalAttestDone = 2;

struct SoakResult
{
    std::uint64_t vms = 0;
    int rounds = 0;
    std::uint64_t servers = 0;
    std::uint64_t eventsExecuted = 0;
    std::uint64_t attests = 0;
    std::uint64_t retransmits = 0;
    double simMakespanSec = 0;
    double attestationsPerSimSec = 0;
    double wallSeconds = 0;
    double wallEventsPerSec = 0;
    std::uint64_t journalAppends = 0;
    std::uint64_t journalBatches = 0;
    std::uint64_t envelopeAllocs = 0;
    std::uint64_t envelopeReuses = 0;
    std::uint64_t bufferReuses = 0;
    std::uint64_t peakPending = 0;
    bool drained = false;
};

/**
 * The fleet under soak: one controller node and vms/128 server nodes
 * on the real fabric, the real cloud database, the real write-ahead
 * journal. The protocol bodies (RSA attestation, sealed channels) are
 * elided — this bench exists to saturate the event kernel and the
 * send-deliver/journal allocation paths, and at a million VMs the
 * crypto would dominate the clock without adding kernel load.
 */
class SoakFleet
{
  public:
    SoakFleet(std::uint64_t vmCount, int roundCount, int perServer)
        : fabric(events), store("soak-controller"), vms(vmCount),
          rounds(roundCount), vmsPerServer(perServer)
    {
        retransmitIds.assign(vms, 0);
        serverCount = (vms + vmsPerServer - 1) / vmsPerServer;
        fabric.registerNode(kController, [this](const net::Envelope &e) {
            onControllerDatagram(e);
        });
        for (std::uint64_t s = 0; s < serverCount; ++s) {
            controller::ServerRecord rec;
            rec.id = serverId(s);
            rec.totalRamMb = static_cast<std::uint64_t>(vmsPerServer) * 512;
            rec.totalDiskGb = static_cast<std::uint64_t>(vmsPerServer) * 2;
            db.addServer(std::move(rec));
            fabric.registerNode(serverId(s),
                                [this](const net::Envelope &e) {
                                    onServerDatagram(e);
                                });
        }
    }

    SoakResult
    run()
    {
        bench::WallTimer timer;
        events.schedule(0, [this] { launchWave(0); }, "soak.wave");
        events.runAll();

        SoakResult r;
        r.vms = vms;
        r.rounds = rounds;
        r.servers = serverCount;
        r.eventsExecuted = events.executed();
        r.attests = completions;
        r.retransmits = retransmitsFired;
        r.simMakespanSec = toSeconds(events.now());
        r.attestationsPerSimSec =
            r.simMakespanSec > 0 ? static_cast<double>(completions) /
                                       r.simMakespanSec
                                 : 0;
        r.wallSeconds = timer.elapsedSeconds();
        r.wallEventsPerSec =
            r.wallSeconds > 0
                ? static_cast<double>(r.eventsExecuted) / r.wallSeconds
                : 0;
        r.journalAppends = store.stats().appends;
        r.journalBatches = store.stats().appendBatches;
        r.envelopeAllocs = fabric.stats().envelopeAllocs;
        r.envelopeReuses = fabric.stats().envelopeReuses;
        r.bufferReuses = fabric.stats().bufferReuses;
        r.peakPending = events.slotCapacity();
        r.drained = events.pending() == 0 &&
                    completions ==
                        vms * static_cast<std::uint64_t>(rounds) &&
                    retransmitsFired == 0;
        return r;
    }

  private:
    static constexpr const char *kController = "soak-ctl";

    std::string serverId(std::uint64_t s) const
    {
        return "s" + std::to_string(s);
    }

    std::uint64_t serverOf(std::uint64_t vm) const
    {
        return vm / static_cast<std::uint64_t>(vmsPerServer);
    }

    void
    launchWave(std::uint64_t wave)
    {
        const std::uint64_t first = wave * kWaveSize;
        const std::uint64_t last = std::min(first + kWaveSize, vms);
        std::vector<Bytes> payloads;
        payloads.reserve(last - first);
        for (std::uint64_t vm = first; vm < last; ++vm) {
            controller::VmRecord rec;
            rec.vid = "v" + std::to_string(vm);
            rec.name = rec.vid;
            rec.customer = "soak-customer";
            rec.imageName = "cirros";
            rec.flavorName = "small";
            rec.imageSizeMb = 16;
            rec.vcpus = 1;
            rec.ramMb = 512;
            rec.diskGb = 2;
            rec.serverId = serverId(serverOf(vm));
            rec.status = controller::VmStatus::Running;
            rec.launchedAt = events.now();
            payloads.push_back(proto::encode(rec));
            db.allocate(rec.serverId, rec.ramMb, rec.diskGb);
            db.addVm(std::move(rec));
            events.schedule(
                events.now() + kAttestPeriod +
                    jitterOf(vm, kAttestJitter),
                [this, vm] { onAttestTimer(vm, 0); }, "soak.attest");
        }
        // One WAL batch and one group-commit fsync per launch wave.
        store.appendMany(kJournalVmLaunched, std::move(payloads));
        store.sync();
        if (last < vms) {
            events.scheduleAfter(kWaveGap,
                                 [this, wave] { launchWave(wave + 1); },
                                 "soak.wave");
        } else {
            // Boot storm over: checkpoint supersedes the launch journal.
            store.checkpoint(fleetSnapshot());
        }
    }

    void
    onAttestTimer(std::uint64_t vm, std::uint32_t round)
    {
        net::Envelope env;
        env.src = kController;
        env.dst = serverId(serverOf(vm));
        env.channel = "soak.attreq";
        env.seq = ++seq;
        env.payload = fabric.takeBuffer(16);
        putU64(env.payload, vm);
        putU64(env.payload, round);
        fabric.send(std::move(env));
        retransmitIds[vm] = events.scheduleAfter(
            kRetransmitTimeout,
            [this, vm, round] {
                (void)round;
                ++retransmitsFired;
                retransmitIds[vm] = 0;
            },
            "soak.retx");
    }

    void
    onServerDatagram(const net::Envelope &env)
    {
        const std::uint64_t vm = getU64(env.payload, 0);
        const std::uint64_t round = getU64(env.payload, 8);
        // Measurement latency on the attested server, then the report.
        events.scheduleAfter(
            kMeasureDelay,
            [this, vm, round] {
                net::Envelope resp;
                resp.src = serverId(serverOf(vm));
                resp.dst = kController;
                resp.channel = "soak.attrep";
                resp.seq = ++seq;
                resp.payload = fabric.takeBuffer(24);
                putU64(resp.payload, vm);
                putU64(resp.payload, round);
                putU64(resp.payload, 0x7); // Healthy measurement word.
                fabric.send(std::move(resp));
            },
            "soak.measure");
    }

    void
    onControllerDatagram(const net::Envelope &env)
    {
        const std::uint64_t vm = getU64(env.payload, 0);
        const auto round = static_cast<std::uint32_t>(
            getU64(env.payload, 8));
        events.cancel(retransmitIds[vm]);
        retransmitIds[vm] = 0;

        controller::VmRecord *rec = db.vm("v" + std::to_string(vm));
        if (rec != nullptr)
            rec->status = controller::VmStatus::Running;

        Bytes entry;
        entry.reserve(24);
        putU64(entry, vm);
        putU64(entry, round);
        putU64(entry, static_cast<std::uint64_t>(events.now()));
        completionJournal.push_back(std::move(entry));
        if (completionJournal.size() >= kCompletionFlush)
            flushCompletions();

        ++completions;
        if (completions % vms == 0) {
            // A full attestation round landed: flush and checkpoint so
            // the journal stays bounded across the soak.
            flushCompletions();
            store.checkpoint(fleetSnapshot());
        }
        if (static_cast<int>(round) + 1 < rounds) {
            events.scheduleAfter(kAttestPeriod,
                                 [this, vm, round] {
                                     onAttestTimer(vm, round + 1);
                                 },
                                 "soak.attest");
        }
    }

    void
    flushCompletions()
    {
        if (completionJournal.empty())
            return;
        store.appendMany(kJournalAttestDone, std::move(completionJournal));
        completionJournal.clear();
        store.sync();
    }

    Bytes
    fleetSnapshot() const
    {
        Bytes snap;
        putU64(snap, vms);
        putU64(snap, completions);
        putU64(snap, static_cast<std::uint64_t>(events.now()));
        return snap;
    }

    sim::EventQueue events; // Declared before fabric (teardown order).
    net::Network fabric;
    sim::StableStore store;
    controller::CloudDatabase db;
    std::vector<sim::EventId> retransmitIds;
    std::vector<Bytes> completionJournal;
    std::uint64_t vms;
    int rounds;
    int vmsPerServer;
    std::uint64_t serverCount = 0;
    std::uint64_t seq = 0;
    std::uint64_t completions = 0;
    std::uint64_t retransmitsFired = 0;
};

// --- Output ------------------------------------------------------------

bool
writeJson(const std::string &path, const SoakResult &soak,
          const KernelLegResult &legacy, const KernelLegResult &current,
          double speedup, bool traceMatch)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(
        f,
        "{\n"
        "  \"benchmark\": \"bench_soak\",\n"
        "  \"workload\": \"%llu VMs: batch-journaled launch waves + %d "
        "periodic attestation rounds over the real fabric/journal; "
        "kernel A/B on the identical timer workload\",\n"
        "  \"soak\": {\n"
        "    \"vms\": %llu,\n"
        "    \"rounds\": %d,\n"
        "    \"servers\": %llu,\n"
        "    \"events_executed\": %llu,\n"
        "    \"attests\": %llu,\n"
        "    \"retransmits\": %llu,\n"
        "    \"sim_makespan_sec\": %.6f,\n"
        "    \"attestations_per_sim_sec\": %.2f,\n"
        "    \"wall_seconds\": %.6f,\n"
        "    \"wall_events_per_sec\": %.0f,\n"
        "    \"peak_rss_kb\": %ld,\n"
        "    \"peak_pending_events\": %llu,\n"
        "    \"journal_appends\": %llu,\n"
        "    \"journal_batches\": %llu,\n"
        "    \"envelope_allocs\": %llu,\n"
        "    \"envelope_reuses\": %llu,\n"
        "    \"buffer_reuses\": %llu,\n"
        "    \"drained\": %s\n"
        "  },\n"
        "  \"kernel_ab\": {\n"
        "    \"events_per_leg\": %llu,\n"
        "    \"trace_match\": %s,\n"
        "    \"legacy_tombstones_leaked\": %llu,\n"
        "    \"before\": {\"engine\": \"priority_queue+tombstones\", "
        "\"wall_seconds\": %.6f, \"wall_events_per_sec\": %.0f},\n"
        "    \"after\": {\"engine\": \"flat-heap+inline-callbacks\", "
        "\"wall_seconds\": %.6f, \"wall_events_per_sec\": %.0f},\n"
        "    \"speedup\": %.3f\n"
        "  },\n"
        "  \"metadata\": %s\n"
        "}\n",
        static_cast<unsigned long long>(soak.vms), soak.rounds,
        static_cast<unsigned long long>(soak.vms), soak.rounds,
        static_cast<unsigned long long>(soak.servers),
        static_cast<unsigned long long>(soak.eventsExecuted),
        static_cast<unsigned long long>(soak.attests),
        static_cast<unsigned long long>(soak.retransmits),
        soak.simMakespanSec, soak.attestationsPerSimSec,
        soak.wallSeconds, soak.wallEventsPerSec, bench::peakRssKb(),
        static_cast<unsigned long long>(soak.peakPending),
        static_cast<unsigned long long>(soak.journalAppends),
        static_cast<unsigned long long>(soak.journalBatches),
        static_cast<unsigned long long>(soak.envelopeAllocs),
        static_cast<unsigned long long>(soak.envelopeReuses),
        static_cast<unsigned long long>(soak.bufferReuses),
        soak.drained ? "true" : "false",
        static_cast<unsigned long long>(legacy.executed),
        traceMatch ? "true" : "false",
        static_cast<unsigned long long>(legacy.tombstones),
        legacy.wallSeconds, legacy.eventsPerSec, current.wallSeconds,
        current.eventsPerSec, speedup, bench::metadataJson().c_str());
    std::fclose(f);
    return true;
}

} // namespace

int
main()
{
    const auto vms = static_cast<std::uint64_t>(
        envInt64("MONATT_SOAK_VMS", 1000000));
    const int rounds =
        static_cast<int>(envInt64("MONATT_SOAK_ROUNDS", 2));
    const double minSpeedup = envDouble("MONATT_SOAK_MIN_SPEEDUP", 2.0);
    const int vmsPerServer = 128;

    bench::banner(
        "Million-VM soak",
        "Event-kernel and allocation hot paths under a cloud-scale "
        "fleet: batch-journaled\nlaunch waves, periodic attestation "
        "rounds with retransmission timers, and a\nsame-binary kernel "
        "A/B against the pre-overhaul event queue.");

    std::printf("\nvms=%llu rounds=%d (MONATT_SOAK_VMS / "
                "MONATT_SOAK_ROUNDS)\n\n",
                static_cast<unsigned long long>(vms), rounds);

    // Kernel A/B first: identical workload, both kernels, one binary.
    std::printf("kernel A/B (%llu timers x %d rounds + retransmission "
                "churn)\n",
                static_cast<unsigned long long>(vms), rounds);
    const KernelLegResult legacy =
        runKernelLeg<bench::LegacyEventQueue>(vms, rounds);
    const KernelLegResult current =
        runKernelLeg<sim::EventQueue>(vms, rounds);
    const bool traceMatch = legacy.digest == current.digest &&
                            legacy.executed == current.executed;
    const double speedup =
        legacy.eventsPerSec > 0 && current.eventsPerSec > 0
            ? current.eventsPerSec / legacy.eventsPerSec
            : 0;

    bench::row("  legacy",
               {bench::fmt("%.3fs", legacy.wallSeconds),
                bench::fmt("%.0f ev/s", legacy.eventsPerSec)},
               18, 14);
    bench::row("  flat-heap",
               {bench::fmt("%.3fs", current.wallSeconds),
                bench::fmt("%.0f ev/s", current.eventsPerSec)},
               18, 14);
    std::printf("  trace digests %s (legacy %016llx, flat %016llx); "
                "legacy leaked %llu tombstones\n",
                traceMatch ? "MATCH" : "MISMATCH",
                static_cast<unsigned long long>(legacy.digest),
                static_cast<unsigned long long>(current.digest),
                static_cast<unsigned long long>(legacy.tombstones));
    std::printf("  speedup %.2fx (floor %.2fx)\n\n", speedup,
                minSpeedup);

    // Fleet soak on the production stack.
    std::printf("fleet soak (launch + %d attestation rounds)\n", rounds);
    SoakResult soak;
    {
        SoakFleet fleet(vms, rounds, vmsPerServer);
        soak = fleet.run();
    }
    bench::row("  events",
               {std::to_string(soak.eventsExecuted),
                bench::fmt("%.0f ev/s", soak.wallEventsPerSec)},
               18, 14);
    bench::row("  sim makespan",
               {bench::fmt("%.1fs", soak.simMakespanSec),
                bench::fmt("%.1f att/s", soak.attestationsPerSimSec)},
               18, 14);
    std::printf("  wall %.2fs, peak RSS %ld KiB, peak pending %llu, "
                "journal %llu records in %llu batches\n",
                soak.wallSeconds, bench::peakRssKb(),
                static_cast<unsigned long long>(soak.peakPending),
                static_cast<unsigned long long>(soak.journalAppends),
                static_cast<unsigned long long>(soak.journalBatches));
    std::printf("  envelope slab: %llu allocs, %llu reuses; drained: "
                "%s\n",
                static_cast<unsigned long long>(soak.envelopeAllocs),
                static_cast<unsigned long long>(soak.envelopeReuses),
                soak.drained ? "yes" : "NO");

    if (!writeJson("BENCH_soak.json", soak, legacy, current, speedup,
                   traceMatch))
        return 1;
    std::printf("\nwrote BENCH_soak.json\n");

    if (!soak.drained || !traceMatch)
        return 2;
    return speedup >= minSpeedup ? 0 : 2;
}
