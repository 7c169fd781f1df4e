/**
 * @file
 * Unit coverage for the controller replica-group machinery: the
 * majority commit rule (ReplicaLedger), the deterministic election
 * state machine (ElectionState), replica id formatting, and the
 * ring/replica separation — replicas never sit on the ownership ring,
 * so replica membership changes cause zero VM remapping.
 */

#include <gtest/gtest.h>

#include "controller/election.h"
#include "controller/hash_ring.h"
#include "controller/replicated_log.h"
#include "core/cloud.h"

namespace monatt::controller
{
namespace
{

// --- ReplicaLedger: majority commit rule ------------------------------

TEST(ReplicaLedgerTest, CommitNeedsAMajorityOfDurableCopies)
{
    ReplicaLedger ledger({"f1", "f2"});

    // Leader alone holds LSN 10: 1 of 3 copies, no majority.
    EXPECT_EQ(ledger.commitLsn(10, 3), 0u);

    // One follower at 7: {10, 7, 0} — the 2nd largest is 7.
    ledger.recordAck("f1", 7);
    EXPECT_EQ(ledger.commitLsn(10, 3), 7u);

    // Both followers caught up: commit rides the leader's cursor.
    ledger.recordAck("f2", 10);
    EXPECT_EQ(ledger.commitLsn(10, 3), 10u);
}

TEST(ReplicaLedgerTest, TwoOfThreeReplicasDownStallsTheCursor)
{
    // The satellite property: with two of three replicas down the
    // durable set can never reach a majority, so the cursor refuses
    // to advance no matter how far the leader's own journal runs.
    ReplicaLedger ledger({"f1", "f2"});
    for (std::uint64_t lsn = 1; lsn <= 100; ++lsn)
        EXPECT_EQ(ledger.commitLsn(lsn, 3), 0u) << "lsn=" << lsn;

    // A single follower ack (the other stays dark) restores majority.
    ledger.recordAck("f1", 42);
    EXPECT_EQ(ledger.commitLsn(100, 3), 42u);
}

TEST(ReplicaLedgerTest, AcksAreCumulativeAndNeverMoveBackwards)
{
    ReplicaLedger ledger({"f1"});
    ledger.recordAck("f1", 9);
    ledger.recordAck("f1", 4); // stale duplicate from the network
    EXPECT_EQ(ledger.ackOf("f1"), 9u);
    EXPECT_EQ(ledger.commitLsn(12, 2), 9u);

    ledger.reset({"f1"});
    EXPECT_EQ(ledger.ackOf("f1"), 0u)
        << "leadership change must forget follower progress";
}

TEST(ReplicaLedgerTest, UnreplicatedGroupCommitsImmediately)
{
    ReplicaLedger ledger(std::vector<std::string>{});
    EXPECT_EQ(ledger.commitLsn(5, 1), 5u);
}

// --- ElectionState: deterministic rounds and votes --------------------

TEST(ElectionTest, TimeoutIsDeterministicAndBounded)
{
    const std::vector<std::string> group{"a", "b", "c"};
    ElectionState a("a", group);
    ElectionState a2("a", group);
    ElectionState b("b", group);

    // Pure function of (id, round): re-evaluation never drifts, so a
    // fixed seed elects the same leader on every run.
    EXPECT_EQ(a.electionTimeout(), a2.electionTimeout());
    EXPECT_GE(a.electionTimeout(), ElectionState::kElectionTimeoutMin);
    EXPECT_LT(a.electionTimeout(), ElectionState::kElectionTimeoutMax);

    // Distinct replicas draw distinct jitter (for these ids), which is
    // what breaks symmetry without any randomness.
    EXPECT_NE(a.electionTimeout(), b.electionTimeout());
}

TEST(ElectionTest, MajorityOfVotesPromotes)
{
    ElectionState cand("b", {"a", "b", "c"});
    EXPECT_EQ(cand.role(), ReplicaRole::Follower);
    cand.startCandidacy();
    EXPECT_EQ(cand.role(), ReplicaRole::PotentialLeader);
    EXPECT_EQ(cand.round(), 1u);

    // Own vote + one grant = 2 of 3.
    EXPECT_TRUE(cand.recordVote("a", 1));
    EXPECT_EQ(cand.role(), ReplicaRole::Leader);
    // A late grant for the same round must not re-promote.
    EXPECT_FALSE(cand.recordVote("c", 1));
}

TEST(ElectionTest, VotesAreSingleUsePerRound)
{
    ElectionState voter("c", {"a", "b", "c"});
    EXPECT_TRUE(voter.considerVote(1, 0, 0, 0, 0));
    // Second candidate in the same round: already spent.
    EXPECT_FALSE(voter.considerVote(1, 0, 0, 0, 0));
    // Higher round: fresh vote.
    EXPECT_TRUE(voter.considerVote(2, 0, 0, 0, 0));
}

TEST(ElectionTest, StaleLogsAreRefusedVotes)
{
    ElectionState voter("c", {"a", "b", "c"});
    // Candidate's mirror is behind ours: refuse, but adopt the round
    // so our own next candidacy outbids it.
    EXPECT_FALSE(voter.considerVote(3, /*candLastLogRound=*/1,
                                    /*candLastLsn=*/5,
                                    /*ownLastLogRound=*/2,
                                    /*ownLastLsn=*/3));
    EXPECT_EQ(voter.round(), 3u);
    // Same log round, shorter log: refused too.
    EXPECT_FALSE(voter.considerVote(4, 2, 2, 2, 3));
    // Same log round, at least as long: granted.
    EXPECT_TRUE(voter.considerVote(5, 2, 3, 2, 3));
}

TEST(ElectionTest, BootstrapSpendsEveryReplicasRoundOneVote)
{
    const std::vector<std::string> group{"a", "b", "c"};
    ElectionState primary("a", group);
    ElectionState follower("b", group);
    primary.bootstrap(/*primary=*/true);
    follower.bootstrap(/*primary=*/false);
    EXPECT_EQ(primary.role(), ReplicaRole::Leader);
    EXPECT_EQ(follower.role(), ReplicaRole::Follower);
    EXPECT_EQ(follower.round(), 1u);
    // Round 1 is the primary's: no candidate can win it, a later
    // round is open.
    EXPECT_FALSE(follower.considerVote(1, 0, 0, 0, 0));
    EXPECT_TRUE(follower.considerVote(2, 0, 0, 0, 0));
}

TEST(ElectionTest, ObservingAHigherRoundLeaderDemotes)
{
    ElectionState node("a", {"a", "b", "c"});
    node.bootstrap(/*primary=*/true);
    ASSERT_EQ(node.role(), ReplicaRole::Leader);
    EXPECT_TRUE(node.observeLeader("b", 2));
    EXPECT_EQ(node.role(), ReplicaRole::Follower);
    EXPECT_EQ(node.round(), 2u);
    // A deposed-round leader cannot reclaim the group.
    EXPECT_FALSE(node.observeLeader("c", 1));
    EXPECT_EQ(node.round(), 2u);
}

TEST(ElectionTest, ReplicaIdFormatting)
{
    EXPECT_EQ(replicaId("cloud-controller", 0), "cloud-controller");
    EXPECT_EQ(replicaId("controller-shard-2", 1),
              "controller-shard-2-replica-1");
    EXPECT_EQ(replicaId("controller-shard-2", 2),
              "controller-shard-2-replica-2");
}

// --- Ring / replica separation ----------------------------------------

TEST(ReplicaRingTest, ReplicasNeverJoinTheOwnershipRing)
{
    core::CloudConfig cfg;
    cfg.numServers = 2;
    cfg.controllerShards = 2;
    cfg.controllerReplicas = 3;
    core::Cloud cloud(cfg);

    const HashRing &ring = cloud.controllerFabric().ring();
    EXPECT_EQ(ring.nodes().size(), 2u)
        << "only base shard ids may sit on the ring";
    EXPECT_TRUE(ring.contains("cloud-controller"));
    EXPECT_TRUE(ring.contains("controller-shard-1"));
    EXPECT_FALSE(ring.contains("cloud-controller-replica-1"));
    EXPECT_FALSE(ring.contains("controller-shard-1-replica-2"));
}

TEST(ReplicaRingTest, ReplicaCrashCausesZeroVidRemap)
{
    core::CloudConfig cfg;
    cfg.numServers = 2;
    cfg.controllerShards = 2;
    cfg.controllerReplicas = 3;
    core::Cloud cloud(cfg);

    const HashRing &ring = cloud.controllerFabric().ring();
    std::vector<std::string> owners;
    for (int i = 0; i < 200; ++i)
        owners.push_back(ring.owner("vm-" + std::to_string(i)));

    // A replica leaving (crash) is a membership change in its group,
    // not on the ring: every vid keeps its owner. Contrast with a
    // *shard* leaving, which legitimately remaps its arc.
    ASSERT_TRUE(cloud.crashNode("cloud-controller-replica-1").isOk());
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(ring.owner("vm-" + std::to_string(i)),
                  owners[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(cloud.restartNode("cloud-controller-replica-1").isOk());
}

TEST(ReplicaRingTest, CrashNodeDiagnosesUnknownReplicaIds)
{
    core::CloudConfig cfg;
    cfg.numServers = 2;
    cfg.controllerShards = 2;
    cfg.controllerReplicas = 2;
    core::Cloud cloud(cfg);

    // Real replica ids resolve...
    EXPECT_TRUE(cloud.crashNode("controller-shard-1-replica-1").isOk());
    EXPECT_TRUE(
        cloud.restartNode("controller-shard-1-replica-1").isOk());

    // ...and out-of-range ones are named in the diagnostic instead of
    // silently turning a chaos plan into a clean-wire run.
    const Status st = cloud.crashNode("controller-shard-2-replica-1");
    EXPECT_FALSE(st.isOk());
    EXPECT_NE(st.errorMessage().find("controller-shard-2-replica-1"),
              std::string::npos);
    EXPECT_NE(st.errorMessage().find("replica"), std::string::npos)
        << "diagnostic should mention replicas: "
        << st.errorMessage();

    const Status r = cloud.restartNode("cloud-controller-replica-9");
    EXPECT_FALSE(r.isOk());
    EXPECT_NE(r.errorMessage().find("cloud-controller-replica-9"),
              std::string::npos);
}

} // namespace
} // namespace monatt::controller
