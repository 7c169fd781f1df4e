/**
 * @file
 * Durability-plane cost model: controller recovery latency as a
 * function of journal length and checkpoint cadence, plus a clean-wire
 * A/B leg showing the write-ahead journal costs zero simulated time
 * (and only bookkeeping wall time) when no crash ever happens.
 *
 * Two SLO sections ride on top:
 *  - "slo": one leg per CheckpointPolicy axis (count / size / age),
 *    each asserting the axis actually bounds what a recovery has to
 *    replay (records for the count axis, journal bytes for the size
 *    axis, checkpoint cadence for the age axis);
 *  - "storage_faults": recovery with the disk-failure model armed —
 *    bit-rot and torn writes corrupt the journal, verifying replay
 *    quarantines the damage instead of replaying it, and the
 *    controller still serves attestations afterwards.
 *
 * The sim-deterministic metrics (records_replayed,
 * records_quarantined) are gated by scripts/check_bench_regression.py;
 * wall_replay_ms is runner noise and only warns.
 *
 * The paper's control plane is implicitly always-up; this bench
 * characterizes the durability layer this reproduction adds on top:
 * journaled VmRecords/attest contexts, checkpointing, and synchronous
 * replay inside restartNode().
 */

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/cloud.h"

using namespace monatt;
using namespace monatt::core;

namespace
{

struct RecoveryPoint
{
    int attests = 0;
    std::size_t checkpointEvery = 0;
    std::size_t durableRecords = 0;
    std::size_t durableBytes = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t replayed = 0;
    double recoveryMs = 0;
    bool intact = false;
};

CloudConfig
baseConfig(sim::CheckpointPolicyConfig policy, bool durable = true)
{
    CloudConfig cfg;
    cfg.numServers = 4;
    cfg.numAttestationServers = 2;
    cfg.seed = 424242;
    cfg.durableControlPlane = durable;
    cfg.checkpointPolicy = policy;
    return cfg;
}

sim::CheckpointPolicyConfig
countPolicy(std::size_t everyRecords)
{
    sim::CheckpointPolicyConfig policy;
    policy.everyRecords = everyRecords;
    return policy;
}

/** Launch 4 VMs and run `attests` fault-free attestations. */
std::vector<std::string>
runWorkload(Cloud &cloud, Customer &customer, int attests)
{
    std::vector<std::string> vids;
    for (int i = 0; i < 4; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        if (!vid.isOk())
            throw std::runtime_error(vid.errorMessage());
        vids.push_back(vid.take());
    }
    std::vector<std::string> many;
    many.reserve(static_cast<std::size_t>(attests));
    for (int i = 0; i < attests; ++i)
        many.push_back(vids[static_cast<std::size_t>(i) % vids.size()]);
    for (auto &r : cloud.attestMany(customer, many,
                                    proto::allProperties(), seconds(600)))
        if (!r.isOk())
            throw std::runtime_error(r.errorMessage());
    return vids;
}

/** Workload, crash the controller, and time the synchronous journal
 * replay on restart. */
RecoveryPoint
runRecoveryPoint(int attests, std::size_t checkpointEvery)
{
    Cloud cloud(baseConfig(countPolicy(checkpointEvery)));
    Customer &customer = cloud.addCustomer("bench-customer");
    const std::vector<std::string> vids =
        runWorkload(cloud, customer, attests);

    RecoveryPoint point;
    point.attests = attests;
    point.checkpointEvery = checkpointEvery;
    const sim::StableStore &store = cloud.controller().stableStore();
    point.durableRecords = store.durableRecords();
    point.durableBytes = store.durableBytes();
    point.checkpoints = store.stats().checkpoints;

    cloud.crashNode("cloud-controller");
    cloud.runFor(seconds(1));

    bench::WallTimer timer;
    cloud.restartNode("cloud-controller");
    point.recoveryMs = 1e3 * timer.elapsedSeconds();

    point.replayed = store.stats().recordsReplayed;
    point.intact = cloud.controller().stats().recoveries == 1;
    for (const std::string &vid : vids)
        point.intact &= cloud.controller().database().vm(vid) != nullptr;
    return point;
}

/** One CheckpointPolicy axis exercised to its SLO. */
struct PolicySlo
{
    std::string name;
    std::size_t recordsAtCrash = 0;
    std::size_t journalBytesAtCrash = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t replayed = 0;
    double replayMs = 0;
    bool met = false;
};

PolicySlo
runPolicyLeg(const std::string &name, sim::CheckpointPolicyConfig policy,
             int attests)
{
    Cloud cloud(baseConfig(policy));
    Customer &customer = cloud.addCustomer("bench-customer");
    runWorkload(cloud, customer, attests);

    PolicySlo leg;
    leg.name = name;
    const sim::StableStore &store = cloud.controller().stableStore();
    leg.recordsAtCrash = store.durableRecords();
    leg.journalBytesAtCrash = store.journalBytes();
    leg.checkpoints = store.stats().checkpoints;

    cloud.crashNode("cloud-controller");
    cloud.runFor(seconds(1));
    bench::WallTimer timer;
    cloud.restartNode("cloud-controller");
    leg.replayMs = 1e3 * timer.elapsedSeconds();
    leg.replayed = store.stats().recordsReplayed;

    // The axis's SLO. Triggers are evaluated at handler commit
    // points, so one handler's batch may overshoot the threshold;
    // 2x is the generous-but-real bound the policy guarantees here.
    if (policy.everyRecords > 0)
        leg.met = leg.replayed <= 2 * policy.everyRecords;
    else if (policy.everyBytes > 0)
        leg.met = leg.journalBytesAtCrash <= 2 * policy.everyBytes;
    else
        leg.met = leg.checkpoints >= 1; // age axis kept compacting
    return leg;
}

/**
 * Attestations before the storage-fault leg's crash. Long enough that
 * the journal tail past the last checkpoint holds rotted records: a
 * shorter journal can leave the leg with nothing to heal.
 */
constexpr int kStorageFaultAttests = 48;

/** Recovery with the disk-failure model armed. */
struct StorageFaultLeg
{
    std::uint64_t rotted = 0;
    std::uint64_t tornPersisted = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t truncated = 0;
    std::uint64_t replayed = 0;
    std::uint64_t corruptRecoveries = 0;
    double replayMs = 0;
    bool servesAfterRecovery = false;
};

StorageFaultLeg
runStorageFaultLeg()
{
    Cloud cloud(baseConfig(countPolicy(64)));
    // Disk-side faults only: bit-rot dominates here because the
    // bench crashes the controller from outside an event handler,
    // where the page-cache tail is already synced. The VM records
    // live in the sealed snapshot (cadence 64), so recovery heals
    // the rotted journal tail and keeps serving.
    sim::FaultPlanConfig plan;
    plan.seed = 20260808;
    plan.storage.bitRotProbability = 0.05;
    plan.storage.tornTailPersistProbability = 0.5;
    plan.storage.halfWriteProbability = 0.5;
    plan.storage.reorderPersistProbability = 0.1;
    cloud.installFaultPlan(plan);

    Customer &customer = cloud.addCustomer("bench-customer");
    const std::vector<std::string> vids =
        runWorkload(cloud, customer, kStorageFaultAttests);

    cloud.crashNode("cloud-controller");
    cloud.runFor(seconds(1));
    bench::WallTimer timer;
    cloud.restartNode("cloud-controller");

    StorageFaultLeg leg;
    leg.replayMs = 1e3 * timer.elapsedSeconds();
    const sim::StableStoreStats &stats =
        cloud.controller().stableStore().stats();
    leg.rotted = stats.recordsRotted;
    leg.tornPersisted = stats.recordsTornPersisted;
    leg.quarantined = stats.recordsQuarantined;
    leg.truncated = stats.recordsTruncated;
    leg.replayed = stats.recordsReplayed;
    leg.corruptRecoveries = cloud.controller().stats().corruptRecoveries;

    // The recovered controller must still serve: an attestation of a
    // snapshot-covered VM completes end to end. The first request
    // after the outage may terminally fail Unreachable while the
    // customer's stale secure channel exhausts its retries and
    // resets (the documented healing path), so allow one warm-up.
    for (int attempt = 0; attempt < 2 && !leg.servesAfterRecovery;
         ++attempt)
    {
        auto verdicts = cloud.attestMany(
            customer, {vids[0]}, proto::allProperties(), seconds(600));
        leg.servesAfterRecovery =
            verdicts.size() == 1 && verdicts[0].isOk();
    }
    return leg;
}

struct CleanLeg
{
    double wallSeconds = 0;
    double simSeconds = 0;
    std::size_t reports = 0;
};

/** The fault-free workload with the journal armed or disarmed. */
CleanLeg
runCleanLeg(bool durable, int attests)
{
    Cloud cloud(baseConfig(countPolicy(512), durable));
    Customer &customer = cloud.addCustomer("bench-customer");
    runWorkload(cloud, customer, attests);

    CleanLeg leg;
    leg.simSeconds = toSeconds(cloud.events().now());
    leg.reports = customer.reports().size();
    return leg;
}

bool
writeRecoveryJson(const std::string &path,
                  const std::vector<RecoveryPoint> &sweep,
                  const std::vector<PolicySlo> &slos,
                  const StorageFaultLeg &storage, const CleanLeg &durable,
                  const CleanLeg &volatileOnly)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f,
                 "{\n  \"benchmark\": \"recovery\",\n  \"sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const RecoveryPoint &p = sweep[i];
        std::fprintf(
            f,
            "    {\"attests\": %d, \"checkpoint_every\": %zu, "
            "\"durable_records\": %zu, \"durable_bytes\": %zu, "
            "\"checkpoints\": %llu, \"records_replayed\": %llu, "
            "\"wall_recovery_ms\": %.3f, \"intact\": %s}%s\n",
            p.attests, p.checkpointEvery, p.durableRecords,
            p.durableBytes, static_cast<unsigned long long>(p.checkpoints),
            static_cast<unsigned long long>(p.replayed), p.recoveryMs,
            p.intact ? "true" : "false",
            i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"slo\": [\n");
    for (std::size_t i = 0; i < slos.size(); ++i) {
        const PolicySlo &s = slos[i];
        std::fprintf(
            f,
            "    {\"policy\": \"%s\", \"records_at_crash\": %zu, "
            "\"journal_bytes_at_crash\": %zu, \"checkpoints\": %llu, "
            "\"records_replayed\": %llu, \"wall_replay_ms\": %.3f, "
            "\"met\": %s}%s\n",
            s.name.c_str(), s.recordsAtCrash, s.journalBytesAtCrash,
            static_cast<unsigned long long>(s.checkpoints),
            static_cast<unsigned long long>(s.replayed), s.replayMs,
            s.met ? "true" : "false", i + 1 < slos.size() ? "," : "");
    }
    std::fprintf(
        f,
        "  ],\n"
        "  \"storage_faults\": {\n"
        "    \"records_rotted\": %llu,\n"
        "    \"records_torn_persisted\": %llu,\n"
        "    \"records_quarantined\": %llu,\n"
        "    \"records_truncated\": %llu,\n"
        "    \"records_replayed\": %llu,\n"
        "    \"corrupt_recoveries\": %llu,\n"
        "    \"wall_replay_ms\": %.3f,\n"
        "    \"serves_after_recovery\": %s\n"
        "  },\n",
        static_cast<unsigned long long>(storage.rotted),
        static_cast<unsigned long long>(storage.tornPersisted),
        static_cast<unsigned long long>(storage.quarantined),
        static_cast<unsigned long long>(storage.truncated),
        static_cast<unsigned long long>(storage.replayed),
        static_cast<unsigned long long>(storage.corruptRecoveries),
        storage.replayMs,
        storage.servesAfterRecovery ? "true" : "false");
    const double overhead =
        volatileOnly.wallSeconds > 0
            ? (durable.wallSeconds - volatileOnly.wallSeconds) /
                  volatileOnly.wallSeconds
            : 0;
    std::fprintf(
        f,
        "  \"clean_wire_ab\": {\n"
        "    \"durable\": {\"wall_seconds\": %.6f, \"sim_seconds\": "
        "%.6f, \"reports\": %zu},\n"
        "    \"volatile\": {\"wall_seconds\": %.6f, \"sim_seconds\": "
        "%.6f, \"reports\": %zu},\n"
        "    \"wall_overhead\": %.4f,\n"
        "    \"sim_time_identical\": %s\n"
        "  },\n"
        "  \"metadata\": %s\n"
        "}\n",
        durable.wallSeconds, durable.simSeconds, durable.reports,
        volatileOnly.wallSeconds, volatileOnly.simSeconds,
        volatileOnly.reports, overhead,
        durable.simSeconds == volatileOnly.simSeconds ? "true" : "false",
        bench::metadataJson().c_str());
    std::fclose(f);
    return true;
}

} // namespace

int
main()
{
    bench::banner(
        "Control-plane recovery",
        "Controller crash/replay latency vs journal length and "
        "checkpoint cadence\n(4 VMs, 2 AS clusters, fault-free "
        "attestation fan-out before the crash), plus\ncheckpoint-policy "
        "SLOs, recovery under disk faults, and the clean-wire\ncost of "
        "the write-ahead journal.");

    std::vector<RecoveryPoint> sweep;
    bench::row("workload", {"ckpt every", "records", "bytes", "replayed",
                            "recover ms", "intact"},
               12, 10);
    bool shapeOk = true;
    for (const int attests : {8, 32, 128}) {
        for (const std::size_t cadence : {std::size_t{64},
                                          std::size_t{4096}}) {
            RecoveryPoint p = runRecoveryPoint(attests, cadence);
            sweep.push_back(p);
            bench::row(std::to_string(attests) + " attests",
                       {std::to_string(p.checkpointEvery),
                        std::to_string(p.durableRecords),
                        std::to_string(p.durableBytes),
                        std::to_string(p.replayed),
                        bench::fmt("%.3f", p.recoveryMs),
                        p.intact ? "yes" : "NO"},
                       12, 10);
            shapeOk &= p.intact;
        }
    }

    // Checkpoint-policy SLO legs: one per trigger axis.
    std::printf("\ncheckpoint-policy SLOs (32 attests):\n");
    bench::row("policy", {"records", "bytes", "ckpts", "replayed",
                          "replay ms", "met"},
               12, 10);
    std::vector<PolicySlo> slos;
    {
        sim::CheckpointPolicyConfig bySize;
        bySize.everyRecords = 0;
        bySize.everyBytes = 16384;
        sim::CheckpointPolicyConfig byAge;
        byAge.everyRecords = 0;
        byAge.maxAge = seconds(5);
        slos.push_back(runPolicyLeg("count-64", countPolicy(64), 32));
        slos.push_back(runPolicyLeg("bytes-16k", bySize, 32));
        slos.push_back(runPolicyLeg("age-5s", byAge, 32));
    }
    for (const PolicySlo &s : slos) {
        bench::row(s.name,
                   {std::to_string(s.recordsAtCrash),
                    std::to_string(s.journalBytesAtCrash),
                    std::to_string(s.checkpoints),
                    std::to_string(s.replayed),
                    bench::fmt("%.3f", s.replayMs),
                    s.met ? "yes" : "NO"},
                   12, 10);
        shapeOk &= s.met;
    }

    // Recovery with a faulty disk: verified replay quarantines the
    // rot and the controller keeps serving.
    const StorageFaultLeg storage = runStorageFaultLeg();
    std::printf("\nstorage-fault recovery (5%% bit-rot, %d attests):\n"
                "  rotted %llu, quarantined %llu, truncated %llu, "
                "replayed %llu,\n  corrupt recoveries %llu, replay "
                "%.3f ms, serves after recovery: %s\n",
                kStorageFaultAttests,
                static_cast<unsigned long long>(storage.rotted),
                static_cast<unsigned long long>(storage.quarantined),
                static_cast<unsigned long long>(storage.truncated),
                static_cast<unsigned long long>(storage.replayed),
                static_cast<unsigned long long>(storage.corruptRecoveries),
                storage.replayMs,
                storage.servesAfterRecovery ? "yes" : "NO");
    shapeOk &= storage.servesAfterRecovery;
    // The leg shows nothing unless the disk model damaged the journal
    // and a recovery had to heal it.
    shapeOk &= storage.rotted + storage.tornPersisted > 0 &&
               storage.corruptRecoveries > 0;

    // Clean-wire A/B: journaling on an undisturbed run. Appends cost
    // zero simulated time, so the trace must be bit-identical; wall
    // time pays only the serialization bookkeeping.
    std::printf("\nclean-wire A/B (no crash, 50 attestations):\n");
    bench::WallTimer volatileTimer;
    CleanLeg volatileOnly = runCleanLeg(/*durable=*/false, 50);
    volatileOnly.wallSeconds = volatileTimer.elapsedSeconds();

    bench::WallTimer durableTimer;
    CleanLeg durable = runCleanLeg(/*durable=*/true, 50);
    durable.wallSeconds = durableTimer.elapsedSeconds();

    std::printf("  volatile (journal disarmed): %.3f s wall, %.3f s "
                "simulated, %zu reports\n",
                volatileOnly.wallSeconds, volatileOnly.simSeconds,
                volatileOnly.reports);
    std::printf("  durable  (journal armed):    %.3f s wall, %.3f s "
                "simulated, %zu reports\n",
                durable.wallSeconds, durable.simSeconds, durable.reports);
    std::printf("  wall overhead: %.1f%%, simulated time identical: %s\n",
                volatileOnly.wallSeconds > 0
                    ? 100.0 *
                          (durable.wallSeconds - volatileOnly.wallSeconds) /
                          volatileOnly.wallSeconds
                    : 0.0,
                durable.simSeconds == volatileOnly.simSeconds ? "yes"
                                                              : "no");
    // Hard invariants: zero perturbation of the simulation and no
    // change in delivered reports. (Wall-clock delta is reported but
    // not gated — shared CI runners are too noisy.)
    shapeOk &= durable.simSeconds == volatileOnly.simSeconds;
    shapeOk &= durable.reports == volatileOnly.reports;

    if (!writeRecoveryJson("BENCH_recovery.json", sweep, slos, storage,
                           durable, volatileOnly))
        std::printf("\n(could not write BENCH_recovery.json)\n");
    else
        std::printf("\nwrote BENCH_recovery.json\n");

    std::printf("shape check: %s\n", shapeOk ? "PASS" : "FAIL");
    return shapeOk ? 0 : 1;
}
