/**
 * @file
 * Replicated control plane under fire. Two scenarios:
 *
 *  - Dual leader kill: every shard leader crashes mid-fan-out while
 *    the wire drops packets. A follower must win the election, replay
 *    the mirrored journal, and finish the outstanding attestations —
 *    every request reaches a terminal verdict, no VmRecord is lost,
 *    and a same-seed re-run is bit-identical.
 *
 *  - Majority loss: with two of three replicas down the surviving
 *    leader must refuse to expose any externally visible effect; the
 *    gated work drains the moment a follower returns and majority
 *    commit resumes.
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
absorbTime(crypto::Sha256 &digest, SimTime t)
{
    Bytes b;
    for (int i = 0; i < 8; ++i)
        b.push_back(static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(t) >> (8 * i)));
    digest.update(b);
}

struct FailoverTrace
{
    std::string digest;
    std::size_t okCount = 0;
    std::size_t settled = 0;
    std::size_t lostRecords = 0;
    std::vector<std::string> leaders; //!< Post-failover, per shard.
    std::vector<std::uint64_t> rounds;
    std::size_t eventsExecuted = 0;
    SimTime endTime = 0;
};

FailoverTrace
runDualLeaderKill(double drop)
{
    CloudConfig cfg;
    cfg.numServers = 4;
    cfg.numAttestationServers = 2;
    cfg.seed = 91001;
    cfg.controllerShards = 2;
    cfg.controllerReplicas = 3;
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
    EXPECT_EQ(vids.size(), 4u);

    // Both shard leaders die shortly after the fan-out starts and stay
    // dead long past the elections, so the answers can only come from
    // promoted followers. The old leaders rejoin near the end as
    // followers and must not disturb the terminal verdicts.
    sim::FaultPlanConfig plan;
    plan.seed = 0xFA11;
    plan.faults.dropProbability = drop;
    plan.activeFrom = cloud.events().now();
    const SimTime crashAt = cloud.events().now() + msec(300);
    const SimTime restartAt = cloud.events().now() + seconds(20);
    plan.crashes.push_back(
        sim::CrashEvent{"cloud-controller", crashAt, restartAt});
    plan.crashes.push_back(
        sim::CrashEvent{"controller-shard-1", crashAt, restartAt});
    cloud.installFaultPlan(plan);

    std::vector<std::string> many;
    for (int i = 0; i < 16; ++i)
        many.push_back(vids[static_cast<std::size_t>(i) % vids.size()]);
    auto results = cloud.attestMany(customer, many,
                                    proto::allProperties(), seconds(600));

    FailoverTrace trace;
    crypto::Sha256 digest;
    for (const auto &r : results) {
        if (r.isOk()) {
            ++trace.okCount;
            ++trace.settled;
            digest.update(r.value().report.encode());
            absorbTime(digest, r.value().receivedAt);
        } else {
            trace.settled += r.errorMessage() != "attestation timed out";
            digest.update(toBytes(r.errorMessage()));
        }
    }
    trace.digest = toHex(digest.digest());

    auto &fab = cloud.controllerFabric();
    for (std::size_t k = 0; k < fab.numShards(); ++k) {
        const auto &leader = fab.leaderOf(k);
        trace.leaders.push_back(leader.id());
        trace.rounds.push_back(leader.electionRound());
    }
    // Zero VmRecords lost: every launched VM is still known to the
    // current leader of its owning shard.
    for (const std::string &v : vids)
        trace.lostRecords += fab.ownerOf(v).database().vm(v) == nullptr;
    trace.eventsExecuted = cloud.events().executed();
    trace.endTime = cloud.events().now();
    return trace;
}

TEST(FailoverChaosTest, DualLeaderKillSettlesAndIsBitIdentical)
{
    for (const double drop : {0.0, 0.1, 0.3}) {
        const FailoverTrace run = runDualLeaderKill(drop);
        const FailoverTrace rerun = runDualLeaderKill(drop);

        for (const FailoverTrace *t : {&run, &rerun}) {
            EXPECT_EQ(t->settled, 16u)
                << "every request needs a terminal verdict, drop="
                << drop;
            EXPECT_EQ(t->lostRecords, 0u) << "drop=" << drop;
            ASSERT_EQ(t->leaders.size(), 2u);
            // A follower won each shard: the promoted leader carries a
            // later round than the bootstrap reign it replaced.
            for (std::size_t k = 0; k < t->rounds.size(); ++k)
                EXPECT_GE(t->rounds[k], 2u)
                    << "shard " << k << " leader " << t->leaders[k]
                    << " drop=" << drop;
        }
        // Clean wire additionally verifies everything.
        if (drop == 0.0) {
            EXPECT_EQ(run.okCount, 16u);
            EXPECT_EQ(rerun.okCount, 16u);
        }

        // Bit-identical across same-seed runs, per drop rate.
        EXPECT_EQ(run.digest, rerun.digest) << "drop=" << drop;
        EXPECT_EQ(run.settled, rerun.settled) << "drop=" << drop;
        EXPECT_EQ(run.eventsExecuted, rerun.eventsExecuted)
            << "drop=" << drop;
        EXPECT_EQ(run.endTime, rerun.endTime) << "drop=" << drop;
        EXPECT_EQ(run.leaders, rerun.leaders) << "drop=" << drop;
    }
}

TEST(FailoverChaosTest, MajorityLossGatesCommitsUntilAFollowerReturns)
{
    CloudConfig cfg;
    cfg.numServers = 2;
    cfg.seed = 91002;
    cfg.controllerShards = 1;
    cfg.controllerReplicas = 3;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    // Both followers die before any work arrives; the leader survives
    // but holds only 1 of 3 journal copies.
    sim::FaultPlanConfig plan;
    plan.seed = 0xBEEF;
    const SimTime crashAt = cloud.events().now() + msec(100);
    const SimTime restartAt = cloud.events().now() + seconds(10);
    plan.crashes.push_back(sim::CrashEvent{
        "cloud-controller-replica-1", crashAt, restartAt});
    plan.crashes.push_back(sim::CrashEvent{
        "cloud-controller-replica-2", crashAt, restartAt});
    cloud.installFaultPlan(plan);
    cloud.runFor(msec(200));

    // The launch can only finish after a follower returns: every
    // externally visible step (the LaunchVm command itself) stays in
    // the leader's output gate while the majority is lost.
    auto vid = cloud.launchVm(customer, "vm-stall", "cirros", "small",
                              proto::allProperties());
    ASSERT_TRUE(vid.isOk()) << vid.errorMessage();
    EXPECT_GT(cloud.events().now(), restartAt)
        << "launch must not complete while 2 of 3 replicas are down";

    // The survivor never lost its reign — two dead followers cannot
    // elect anyone, and the leader itself has no one to lose quorum
    // to. Once majority is back the record is fully committed.
    auto &fab = cloud.controllerFabric();
    EXPECT_EQ(fab.leaderOf(0).id(), "cloud-controller");
    EXPECT_EQ(fab.leaderOf(0).electionRound(), 1u);
    EXPECT_NE(fab.ownerOf(vid.value()).database().vm(vid.value()),
              nullptr);
}

} // namespace
} // namespace monatt::core
