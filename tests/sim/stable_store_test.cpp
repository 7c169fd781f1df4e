/**
 * @file
 * StableStore: WAL semantics — un-synced tail records are lost on a
 * crash, synced records and checkpoints survive, replay preserves LSN
 * order, and the durable digest is a pure function of the operation
 * sequence.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "sim/stable_store.h"

namespace monatt::sim
{
namespace
{

Bytes
payload(const std::string &text)
{
    return toBytes(text);
}

TEST(StableStoreTest, AppendIsVolatileUntilSync)
{
    StableStore store("node-a");
    store.append(1, payload("one"));
    store.append(2, payload("two"));
    EXPECT_EQ(store.pendingRecords(), 2u);
    EXPECT_EQ(store.durableRecords(), 0u);
    EXPECT_TRUE(store.empty());

    store.sync();
    EXPECT_EQ(store.pendingRecords(), 0u);
    EXPECT_EQ(store.durableRecords(), 2u);
    EXPECT_FALSE(store.empty());
}

TEST(StableStoreTest, CrashDropsUnsyncedTail)
{
    StableStore store("node-a");
    store.append(1, payload("durable"));
    store.sync();
    store.append(2, payload("lost-1"));
    store.append(3, payload("lost-2"));

    store.crash();

    EXPECT_EQ(store.stats().recordsLost, 2u);
    auto image = store.replay();
    ASSERT_EQ(image.records.size(), 1u);
    EXPECT_EQ(image.records[0].type, 1);
    EXPECT_EQ(toString(image.records[0].payload), "durable");
}

TEST(StableStoreTest, LsnsAreMonotoneAcrossCrashes)
{
    StableStore store;
    EXPECT_EQ(store.append(1, payload("a")), 1u);
    EXPECT_EQ(store.append(1, payload("b")), 2u);
    store.crash(); // loses both, but LSNs never repeat
    EXPECT_EQ(store.append(1, payload("c")), 3u);
    store.sync();
    auto image = store.replay();
    ASSERT_EQ(image.records.size(), 1u);
    EXPECT_EQ(image.records[0].lsn, 3u);
}

TEST(StableStoreTest, CheckpointSupersedesJournal)
{
    StableStore store("node-b");
    store.append(7, payload("old"));
    store.sync();
    store.append(7, payload("buffered"));

    store.checkpoint(payload("snapshot-state"));

    EXPECT_EQ(store.durableRecords(), 0u);
    EXPECT_EQ(store.pendingRecords(), 0u);

    // A crash right after the checkpoint loses nothing.
    store.crash();
    auto image = store.replay();
    EXPECT_TRUE(image.hasSnapshot);
    EXPECT_EQ(toString(image.snapshot), "snapshot-state");
    EXPECT_TRUE(image.records.empty());
}

TEST(StableStoreTest, ReplayPreservesLsnOrderAfterCheckpoint)
{
    StableStore store;
    store.checkpoint(payload("base"));
    store.append(4, payload("r1"));
    store.append(5, payload("r2"));
    store.sync();
    store.append(6, payload("r3"));
    store.sync();

    auto image = store.replay();
    EXPECT_TRUE(image.hasSnapshot);
    ASSERT_EQ(image.records.size(), 3u);
    EXPECT_LT(image.records[0].lsn, image.records[1].lsn);
    EXPECT_LT(image.records[1].lsn, image.records[2].lsn);
    EXPECT_EQ(image.records[0].type, 4);
    EXPECT_EQ(image.records[2].type, 6);
    EXPECT_EQ(store.stats().recordsReplayed, 3u);
}

TEST(StableStoreTest, DigestIsDeterministicAndSensitive)
{
    auto run = [](bool mutate) {
        StableStore store("node-c");
        store.checkpoint(payload("snap"));
        store.append(1, payload(mutate ? "x" : "a"));
        store.append(2, payload("b"));
        store.sync();
        return store.digest();
    };
    EXPECT_EQ(run(false), run(false));
    EXPECT_NE(run(false), run(true));
}

TEST(StableStoreTest, DigestIgnoresVolatileTail)
{
    StableStore a("n"), b("n");
    a.append(1, payload("synced"));
    b.append(1, payload("synced"));
    a.sync();
    b.sync();
    b.append(9, payload("page-cache-only"));
    EXPECT_EQ(a.digest(), b.digest());
    b.crash();
    EXPECT_EQ(a.digest(), b.digest());
}

TEST(StableStoreTest, DurableBytesCountsSnapshotAndJournal)
{
    StableStore store;
    EXPECT_EQ(store.durableBytes(), 0u);
    store.checkpoint(payload("12345"));
    store.append(1, payload("abc"));
    EXPECT_EQ(store.durableBytes(), 5u); // tail not yet durable
    store.sync();
    EXPECT_EQ(store.durableBytes(), 8u);
}

// --- Bulk paths (adoptMany / forEachDurableSince) ---------------------

TEST(StableStoreTest, AdoptManyPreservesLeaderLsns)
{
    StableStore leader("leader");
    leader.append(1, payload("a"));
    leader.append(1, payload("b"));
    leader.append(1, payload("c"));
    leader.sync();

    StableStore follower("follower");
    follower.adoptMany(leader.durableSince(0));
    follower.sync();

    EXPECT_EQ(follower.lastDurableLsn(), 3u);
    EXPECT_EQ(follower.durableRecords(), 3u);
    // Appends after adoption continue from the leader's LSN sequence.
    EXPECT_EQ(follower.append(2, payload("d")), 4u);
}

TEST(StableStoreTest, ForEachDurableSinceStreamsTheSuffix)
{
    StableStore store("node-a");
    for (int i = 0; i < 10; ++i)
        store.append(1, payload("r" + std::to_string(i)));
    store.sync();

    std::vector<std::uint64_t> seen;
    store.forEachDurableSince(7, [&](const JournalRecord &rec) {
        seen.push_back(rec.lsn);
    });
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{8, 9, 10}));

    seen.clear();
    store.forEachDurableSince(10, [&](const JournalRecord &rec) {
        seen.push_back(rec.lsn);
    });
    EXPECT_TRUE(seen.empty());

    // Visits must agree with the materializing path.
    const auto copy = store.durableSince(4);
    seen.clear();
    store.forEachDurableSince(4, [&](const JournalRecord &rec) {
        seen.push_back(rec.lsn);
    });
    ASSERT_EQ(seen.size(), copy.size());
    for (std::size_t i = 0; i < copy.size(); ++i)
        EXPECT_EQ(seen[i], copy[i].lsn);
}

// --- Crash-edge semantics ----------------------------------------------

TEST(StableStoreTest, ReplayOfFreshStoreIsEmptyAndClean)
{
    StableStore store("node-a");
    auto image = store.replay();
    EXPECT_FALSE(image.hasSnapshot);
    EXPECT_TRUE(image.records.empty());
    EXPECT_TRUE(image.clean);
    EXPECT_EQ(store.stats().recordsReplayed, 0u);
}

TEST(StableStoreTest, ReplayOfNeverSyncedStoreAfterCrashIsEmpty)
{
    StableStore store("node-a");
    store.append(1, payload("page-cache-only"));
    store.crash();
    auto image = store.replay();
    EXPECT_FALSE(image.hasSnapshot);
    EXPECT_TRUE(image.records.empty());
    EXPECT_TRUE(image.clean);
    EXPECT_EQ(store.stats().recordsLost, 1u);
}

TEST(StableStoreTest, CheckpointThenImmediateCrashLosesNothing)
{
    StableStore store("node-a");
    store.append(1, payload("a"));
    store.sync();
    store.checkpoint(payload("sealed"));
    store.crash();

    auto image = store.replay();
    EXPECT_TRUE(image.clean);
    ASSERT_TRUE(image.hasSnapshot);
    EXPECT_EQ(toString(image.snapshot), "sealed");
    EXPECT_TRUE(image.records.empty());
}

TEST(StableStoreTest, ForEachDurableSinceSpansCheckpointHorizon)
{
    StableStore store("node-a");
    store.append(1, payload("pre-1"));
    store.append(1, payload("pre-2"));
    store.sync();
    store.checkpoint(payload("snap")); // covers LSNs 1..2
    store.append(1, payload("post-3"));
    store.append(1, payload("post-4"));
    store.sync();

    // A follower acking the snapshot horizon gets exactly the
    // post-snapshot journal; asking from before the horizon cannot
    // resurrect checkpointed records.
    for (const std::uint64_t from : {std::uint64_t{0},
                                     store.snapshotLsn()}) {
        std::vector<std::uint64_t> seen;
        store.forEachDurableSince(from, [&](const JournalRecord &rec) {
            seen.push_back(rec.lsn);
        });
        EXPECT_EQ(seen, (std::vector<std::uint64_t>{3, 4}))
            << "from=" << from;
    }
}

// --- Storage faults and verifying replay -------------------------------

TEST(StableStoreTest, TornTailPersistsUnsyncedPrefix)
{
    StorageFaultConfig cfg;
    cfg.tornTailPersistProbability = 1.0;
    StorageFaultModel faults(7, cfg);

    StableStore store("node-a");
    store.setFaultModel(&faults);
    store.append(1, payload("a"));
    store.sync();
    store.append(1, payload("b"));
    store.append(1, payload("c"));
    store.crash(); // the whole un-synced tail reaches the platter

    EXPECT_EQ(store.stats().recordsTornPersisted, 2u);
    EXPECT_EQ(store.stats().recordsLost, 0u);
    auto image = store.replay();
    EXPECT_TRUE(image.clean);
    ASSERT_EQ(image.records.size(), 3u);
    EXPECT_EQ(toString(image.records[2].payload), "c");
}

TEST(StableStoreTest, HalfWrittenBoundaryIsQuarantined)
{
    StorageFaultConfig cfg;
    cfg.halfWriteProbability = 1.0;
    StorageFaultModel faults(7, cfg);

    StableStore store("node-a");
    store.setFaultModel(&faults);
    store.append(1, payload("durable"));
    store.sync();
    store.append(1, payload("torn-in-half"));
    store.append(1, payload("behind-the-tear"));
    store.crash(); // boundary lands half-written, the rest is lost

    EXPECT_EQ(store.stats().recordsHalfWritten, 1u);
    auto image = store.replay();
    EXPECT_FALSE(image.clean);
    EXPECT_EQ(image.quarantinedRecords, 1u);
    ASSERT_EQ(image.records.size(), 1u); // the synced prefix survives
    EXPECT_EQ(toString(image.records[0].payload), "durable");
    EXPECT_EQ(store.lastDurableLsn(), 1u);
    // LSNs burned by quarantined records are never reissued.
    EXPECT_EQ(store.append(1, payload("next")), 4u);
}

TEST(StableStoreTest, EmptyPayloadHalfWriteStillFailsVerification)
{
    StorageFaultConfig cfg;
    cfg.halfWriteProbability = 1.0;
    StorageFaultModel faults(7, cfg);

    StableStore store("node-a");
    store.setFaultModel(&faults);
    store.append(1, Bytes{}); // nothing to tear in the payload
    store.crash();

    ASSERT_EQ(store.durableRecords(), 1u);
    auto image = store.replay(); // the spoiled stored CRC catches it
    EXPECT_FALSE(image.clean);
    EXPECT_EQ(image.quarantinedRecords, 1u);
    EXPECT_TRUE(image.records.empty());
}

TEST(StableStoreTest, ReorderedOrphanLeavesUnbridgeableGap)
{
    StorageFaultConfig cfg;
    cfg.reorderPersistProbability = 1.0;
    StorageFaultModel faults(7, cfg);

    StableStore store("node-a");
    store.setFaultModel(&faults);
    store.append(1, payload("boundary-lost"));
    store.append(1, payload("orphan-1"));
    store.append(1, payload("orphan-2"));
    store.crash(); // LSN 1 lost; 2 and 3 persist past the gap

    EXPECT_EQ(store.stats().recordsLost, 1u);
    EXPECT_EQ(store.stats().recordsReordered, 2u);
    auto image = store.replay();
    EXPECT_FALSE(image.clean);
    // The orphan behind the gap is unusable (quarantined); the one
    // chained onto it is intact but stranded (truncated).
    EXPECT_EQ(image.quarantinedRecords, 1u);
    EXPECT_EQ(image.truncatedRecords, 1u);
    EXPECT_TRUE(image.records.empty());
    EXPECT_EQ(store.lastDurableLsn(), 0u);
}

TEST(StableStoreTest, BitRotQuarantinesDurableFrames)
{
    StorageFaultConfig cfg;
    cfg.bitRotProbability = 1.0;
    StorageFaultModel faults(7, cfg);

    StableStore store("node-a");
    store.setFaultModel(&faults);
    for (int i = 0; i < 5; ++i)
        store.append(1, payload("r" + std::to_string(i)));
    store.sync();
    store.crash(); // every durable frame rots over the outage

    EXPECT_EQ(store.stats().recordsRotted, 5u);
    auto image = store.replay();
    EXPECT_FALSE(image.clean);
    EXPECT_EQ(image.quarantinedRecords, 5u);
    EXPECT_TRUE(image.records.empty());
    // Verification healed the journal: the store is truthful about
    // holding nothing, and replication would re-stream from LSN 0.
    EXPECT_EQ(store.lastDurableLsn(), 0u);
    EXPECT_EQ(store.journalBytes(), 0u);
}

TEST(StableStoreTest, SecondCrashDoesNotUnrotFrames)
{
    StorageFaultConfig cfg;
    cfg.bitRotProbability = 1.0;
    StorageFaultModel faults(7, cfg);

    StableStore store("node-a");
    store.setFaultModel(&faults);
    store.append(1, payload("once"));
    store.sync();
    store.crash();
    store.crash(); // the rot verdict for (node, LSN) is unchanged; a
                   // second application would XOR the corruption out

    EXPECT_EQ(store.stats().recordsRotted, 1u);
    auto image = store.replay();
    EXPECT_FALSE(image.clean);
    EXPECT_EQ(image.quarantinedRecords, 1u);
}

TEST(StableStoreTest, SnapshotSealFailureDropsSnapshotAndJournal)
{
    StorageFaultConfig cfg;
    cfg.snapshotRotProbability = 1.0;
    StorageFaultModel faults(7, cfg);

    StableStore store("node-a");
    store.setFaultModel(&faults);
    store.append(1, payload("pre"));
    store.sync();
    store.checkpoint(payload("sealed-state"));
    store.append(1, payload("post-1"));
    store.append(1, payload("post-2"));
    store.sync();
    const std::uint64_t nextBefore = store.append(1, payload("probe"));
    store.crash(); // rots the snapshot; journal frames are intact

    EXPECT_EQ(store.stats().snapshotsRotted, 1u);
    auto image = store.replay();
    // The journal is a delta on a now-untrusted base: everything goes.
    EXPECT_FALSE(image.clean);
    EXPECT_TRUE(image.snapshotQuarantined);
    EXPECT_FALSE(image.hasSnapshot);
    EXPECT_TRUE(image.records.empty());
    EXPECT_EQ(image.truncatedRecords, 2u);
    EXPECT_TRUE(store.empty());
    EXPECT_EQ(store.lastDurableLsn(), 0u);
    // ...but the LSN clock still never regresses.
    EXPECT_GT(store.append(1, payload("after")), nextBefore);
}

TEST(StableStoreTest, VerifyDurableLowersReplicationAckHorizon)
{
    StorageFaultConfig cfg;
    cfg.bitRotProbability = 1.0;
    StorageFaultModel faults(7, cfg);

    // Same node id: digest() folds the id, and the replicas model one
    // logical journal anyway.
    StableStore leader("n");
    StableStore follower("n");
    follower.setFaultModel(&faults);
    for (int i = 0; i < 3; ++i)
        leader.append(1, payload("r" + std::to_string(i)));
    leader.sync();
    follower.adoptMany(leader.durableSince(0));
    follower.sync();
    ASSERT_EQ(follower.lastDurableLsn(), 3u);

    follower.crash(); // the whole mirror rots
    const auto healed = follower.verifyDurable();
    EXPECT_FALSE(healed.clean());
    EXPECT_EQ(healed.quarantinedRecords, 3u);
    EXPECT_EQ(follower.lastDurableLsn(), 0u);

    // Acking the healed horizon makes the leader re-stream the
    // damaged range through the normal replication path.
    follower.setFaultModel(nullptr);
    follower.adoptMany(leader.durableSince(follower.lastDurableLsn()));
    follower.sync();
    EXPECT_EQ(follower.lastDurableLsn(), 3u);
    EXPECT_EQ(follower.digest(), leader.digest());
}

TEST(StableStoreTest, JournalBytesTracksDurablePayloadIncrementally)
{
    StableStore store("node-a");
    EXPECT_EQ(store.journalBytes(), 0u);
    store.append(1, payload("1234"));
    EXPECT_EQ(store.journalBytes(), 0u); // still page cache
    store.sync();
    EXPECT_EQ(store.journalBytes(), 4u);
    store.append(1, payload("56"));
    store.sync();
    EXPECT_EQ(store.journalBytes(), 6u);
    store.truncateTo(1);
    EXPECT_EQ(store.journalBytes(), 4u);
    store.checkpoint(payload("snapshot-not-counted"));
    EXPECT_EQ(store.journalBytes(), 0u);
}

} // namespace
} // namespace monatt::sim
