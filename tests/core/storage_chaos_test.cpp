/**
 * @file
 * The durable control plane on a failing disk. Two scenarios:
 *
 *  - Corruption sweep: the controller and pCA power-cycle mid-workload
 *    while every durable frame bit-rots with 0–30% probability.
 *    Verifying replay must quarantine every rotted frame (never
 *    silently replay one), every attestation must still reach a
 *    terminal verdict, and a same-seed re-run must be bit-identical
 *    — storage-fault verdicts are pure functions of (seed, node,
 *    LSN).
 *
 *  - Replica mirror self-heal: a follower restarts with its entire
 *    mirror rotted (frames and snapshot seal). Mirror verification
 *    truncates it to nothing, the leader re-streams through the
 *    normal replication path, and the healed follower must then be
 *    able to win an election and serve with zero lost VmRecords.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cloud.h"
#include "crypto/sha256.h"

namespace monatt::core
{
namespace
{

void
absorbU64(crypto::Sha256 &digest, std::uint64_t v)
{
    Bytes b;
    for (int i = 0; i < 8; ++i)
        b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    digest.update(b);
}

struct StorageChaosTrace
{
    std::string digest;
    std::size_t okCount = 0;
    std::size_t settled = 0;
    std::size_t eventsExecuted = 0;
    SimTime endTime = 0;
    std::uint64_t rotted = 0;      //!< Frames the outages corrupted.
    std::uint64_t quarantined = 0; //!< Frames replay refused to serve.
    std::uint64_t truncated = 0;
    std::uint64_t corruptRecoveries = 0;
};

StorageChaosTrace
runCorruptionSweep(double rot)
{
    CloudConfig cfg;
    cfg.numServers = 4;
    cfg.numAttestationServers = 2;
    cfg.seed = 92001;
    // Tight checkpoint cadence: rot lands on both journal frames and
    // sealed snapshots.
    cfg.checkpointPolicy.everyRecords = 32;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    std::vector<std::string> vids;
    for (int i = 0; i < 4; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        EXPECT_TRUE(vid.isOk()) << vid.errorMessage();
        if (vid.isOk())
            vids.push_back(vid.take());
    }

    // Controller and pCA power-cycle mid-fan-out; the disk-failure
    // axes decide what survives on their platters.
    sim::FaultPlanConfig plan;
    plan.seed = 0xD15C;
    plan.storage.bitRotProbability = rot;
    plan.storage.snapshotRotProbability = rot * 0.5;
    plan.storage.tornTailPersistProbability = 0.5;
    plan.storage.halfWriteProbability = 0.5;
    plan.storage.reorderPersistProbability = 0.2;
    const SimTime now = cloud.events().now();
    plan.crashes.push_back(sim::CrashEvent{
        "cloud-controller", now + msec(300), now + seconds(3)});
    plan.crashes.push_back(sim::CrashEvent{
        "privacy-ca", now + msec(500), now + seconds(2)});
    cloud.installFaultPlan(plan);

    std::vector<std::string> many;
    for (int i = 0; i < 16; ++i)
        many.push_back(vids[static_cast<std::size_t>(i) % vids.size()]);
    auto results = cloud.attestMany(customer, many,
                                    proto::allProperties(), seconds(600));

    StorageChaosTrace trace;
    crypto::Sha256 digest;
    for (const auto &r : results) {
        if (r.isOk()) {
            ++trace.okCount;
            ++trace.settled;
            digest.update(r.value().report.encode());
            absorbU64(digest,
                      static_cast<std::uint64_t>(r.value().receivedAt));
        } else {
            trace.settled += r.errorMessage() != "attestation timed out";
            digest.update(toBytes(r.errorMessage()));
        }
    }

    // Fold every durable image into the trace digest: divergent
    // corruption across runs shows up even when the verdicts happen
    // to agree.
    const sim::StableStore &ccStore = cloud.controller().stableStore();
    const sim::StableStore &pcaStore = cloud.privacyCa().stableStore();
    for (const sim::StableStore *store : {&ccStore, &pcaStore}) {
        absorbU64(digest, store->digest());
        const sim::StableStoreStats &s = store->stats();
        trace.rotted += s.recordsRotted;
        trace.quarantined += s.recordsQuarantined;
        trace.truncated += s.recordsTruncated;
        // No silent replay: every frame rot corrupted while it sat in
        // a durable journal was still there at the next replay (rot
        // is applied at the crash, replay runs at the restart), so it
        // must have been caught.
        EXPECT_LE(s.snapshotsQuarantined, s.snapshotsRotted);
        if (s.recordsRotted > 0) {
            EXPECT_GE(s.recordsQuarantined + s.recordsTruncated, 1u)
                << store->node() << " replayed rotted frames silently";
        }
    }
    trace.corruptRecoveries =
        cloud.controller().stats().corruptRecoveries +
        cloud.privacyCa().corruptRecoveries();
    trace.digest = toHex(digest.digest());
    trace.eventsExecuted = cloud.events().executed();
    trace.endTime = cloud.events().now();
    return trace;
}

TEST(StorageChaosTest, CorruptionSweepSettlesAndIsBitIdentical)
{
    for (const double rot : {0.0, 0.1, 0.3}) {
        const StorageChaosTrace run = runCorruptionSweep(rot);
        const StorageChaosTrace rerun = runCorruptionSweep(rot);

        for (const StorageChaosTrace *t : {&run, &rerun}) {
            EXPECT_EQ(t->settled, 16u)
                << "every request needs a terminal verdict, rot=" << rot;
            if (rot == 0.0) {
                // Clean disk: the outage loses nothing durable and
                // nothing is quarantined.
                EXPECT_EQ(t->okCount, 16u);
                EXPECT_EQ(t->rotted, 0u);
                EXPECT_EQ(t->quarantined, 0u);
                EXPECT_EQ(t->corruptRecoveries, 0u);
            }
        }
        if (rot == 0.3) {
            // The sweep's top end must actually exercise the fault
            // plane: frames rotted and recoveries had to heal.
            EXPECT_GE(run.rotted, 1u);
            EXPECT_GE(run.corruptRecoveries, 1u);
        }

        // Bit-identical across same-seed runs, per rot rate.
        EXPECT_EQ(run.digest, rerun.digest) << "rot=" << rot;
        EXPECT_EQ(run.settled, rerun.settled) << "rot=" << rot;
        EXPECT_EQ(run.rotted, rerun.rotted) << "rot=" << rot;
        EXPECT_EQ(run.quarantined, rerun.quarantined) << "rot=" << rot;
        EXPECT_EQ(run.eventsExecuted, rerun.eventsExecuted)
            << "rot=" << rot;
        EXPECT_EQ(run.endTime, rerun.endTime) << "rot=" << rot;
    }
}

TEST(StorageChaosTest, ReplicaMirrorSelfHealsFromLeaderStream)
{
    CloudConfig cfg;
    cfg.numServers = 4;
    cfg.numAttestationServers = 2;
    cfg.seed = 92002;
    cfg.controllerShards = 1;
    cfg.controllerReplicas = 3;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    std::vector<std::string> vids;
    for (int i = 0; i < 4; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        ASSERT_TRUE(vid.isOk()) << vid.errorMessage();
        vids.push_back(vid.take());
    }

    // replica-1's outage rots its ENTIRE mirror (every frame and the
    // snapshot seal); verification on restart must scrap it and
    // re-sync from the group. The leader dies shortly after and stays
    // dead through the workload: quorum returns only once the healed
    // replica is back, and a follower must win and serve.
    sim::FaultPlanConfig plan;
    plan.seed = 0x5EAL;
    plan.storage.bitRotProbability = 1.0;
    plan.storage.snapshotRotProbability = 1.0;
    const SimTime now = cloud.events().now();
    plan.crashes.push_back(sim::CrashEvent{
        "cloud-controller-replica-1", now + msec(100), now + seconds(2)});
    plan.crashes.push_back(sim::CrashEvent{
        "cloud-controller", now + seconds(1), now + seconds(120)});
    cloud.installFaultPlan(plan);

    std::vector<std::string> many;
    for (int i = 0; i < 12; ++i)
        many.push_back(vids[static_cast<std::size_t>(i) % vids.size()]);
    auto results = cloud.attestMany(customer, many,
                                    proto::allProperties(), seconds(600));
    std::size_t settled = 0;
    for (const auto &r : results)
        settled += r.isOk() ||
                   r.errorMessage() != "attestation timed out";
    EXPECT_EQ(settled, many.size());

    auto &fab = cloud.controllerFabric();
    const controller::CloudController *replica1 =
        fab.shardById("cloud-controller-replica-1");
    ASSERT_NE(replica1, nullptr);
    // The rotted mirror was detected and healed, not replayed.
    EXPECT_GE(replica1->stats().corruptRecoveries, 1u);
    EXPECT_GE(replica1->stableStore().stats().recordsQuarantined +
                  replica1->stableStore().stats().recordsTruncated +
                  replica1->stableStore().stats().snapshotsQuarantined,
              1u);

    // A follower holds the reign now, and no VmRecord was lost: the
    // re-streamed journal covered everything.
    EXPECT_GE(fab.leaderOf(0).electionRound(), 2u);
    for (const std::string &vid : vids)
        EXPECT_NE(fab.ownerOf(vid).database().vm(vid), nullptr)
            << vid << " lost after mirror re-sync";
}

} // namespace
} // namespace monatt::core
