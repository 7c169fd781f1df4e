/**
 * @file
 * DurableLog, the durable core of the controller, AS and pCA: snapshot
 * records replay before journal records, appends are muted while
 * replaying, a healed image counts once, and a crash advances the era
 * that fences callbacks.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "proto/durable_log.h"
#include "sim/storage_faults.h"

namespace monatt::proto
{
namespace
{

/** A toy journal record: one note. */
struct NoteRecord
{
    std::string text;

    static constexpr auto fields()
    {
        return std::tuple{field(&NoteRecord::text, 1, "text").always()};
    }
};

constexpr std::uint16_t kNote = 1;

/** A toy durable entity: its state is the list of notes. */
struct Notes
{
    explicit Notes(sim::CheckpointPolicyConfig policy = {})
        : log("notes", policy,
              [this] {
                  Snapshot snap;
                  for (const std::string &text : live)
                      snap.add(kNote, NoteRecord{text});
                  return snap;
              },
              [this](const sim::JournalRecord &rec) { apply(rec); })
    {
    }

    void write(const std::string &text)
    {
        live.push_back(text);
        log.append(kNote, NoteRecord{text});
        log.commit(0);
    }

    /** The one apply path; it journals like a live mutation would. */
    void apply(const sim::JournalRecord &rec)
    {
        auto note = decode<NoteRecord>(rec.payload);
        ASSERT_TRUE(note.isOk());
        EXPECT_TRUE(log.replaying());
        live.push_back(note.value().text);
        appliedLsns.push_back(rec.lsn);
        log.append(kNote, note.value());
    }

    std::vector<std::string> live;
    std::vector<std::uint64_t> appliedLsns;
    DurableLog log;
};

sim::CheckpointPolicyConfig
everyRecords(std::size_t n)
{
    sim::CheckpointPolicyConfig policy;
    policy.everyRecords = n;
    return policy;
}

TEST(DurableLogTest, SnapshotRecordsApplyBeforeJournalRecords)
{
    Notes notes(everyRecords(2));
    notes.write("a");
    notes.write("b"); // second durable record: checkpoint {a, b}
    notes.write("c");
    ASSERT_EQ(notes.log.store().stats().checkpoints, 1u);

    notes.log.crash();
    notes.live.clear();
    notes.log.recover();

    EXPECT_EQ(notes.live, (std::vector<std::string>{"a", "b", "c"}));
    // Snapshot records carry lsn 0; the journal tail keeps its LSN.
    EXPECT_EQ(notes.appliedLsns, (std::vector<std::uint64_t>{0, 0, 3}));
    EXPECT_FALSE(notes.log.replaying());
    EXPECT_EQ(notes.log.recoveries(), 1u);
}

TEST(DurableLogTest, AppendsAreMutedDuringReplay)
{
    Notes notes;
    notes.write("a");
    notes.write("b");
    const std::uint64_t appends = notes.log.store().stats().appends;

    notes.log.crash();
    notes.live.clear();
    bool rearmed = false;
    notes.log.recover([&] {
        rearmed = true;
        EXPECT_FALSE(notes.log.replaying());
    });

    EXPECT_TRUE(rearmed);
    EXPECT_EQ(notes.appliedLsns.size(), 2u);
    EXPECT_EQ(notes.log.store().stats().appends, appends);
    // Recovery ends with a checkpoint of the recovered state.
    EXPECT_EQ(notes.log.store().durableRecords(), 0u);
    EXPECT_EQ(notes.log.store().stats().checkpoints, 1u);
}

TEST(DurableLogTest, HealedImageCountsOnce)
{
    sim::StorageFaultConfig cfg;
    cfg.bitRotProbability = 1.0;
    sim::StorageFaultModel faults(7, cfg);

    Notes notes;
    notes.log.store().setFaultModel(&faults);
    notes.write("a");
    notes.write("b");
    notes.log.crash(); // every durable frame rots over the outage
    notes.live.clear();
    notes.log.recover();
    EXPECT_EQ(notes.log.recoveries(), 1u);
    EXPECT_EQ(notes.log.corruptRecoveries(), 1u);
    EXPECT_TRUE(notes.live.empty()) << "rotted records never replay";

    // The recovery checkpoint is clean: the next restart heals nothing.
    notes.log.store().setFaultModel(nullptr);
    notes.log.crash();
    notes.log.recover();
    EXPECT_EQ(notes.log.recoveries(), 2u);
    EXPECT_EQ(notes.log.corruptRecoveries(), 1u);
}

TEST(DurableLogTest, CrashBumpsTheEra)
{
    Notes notes;
    const std::uint64_t armed = notes.log.era();
    EXPECT_FALSE(notes.log.stale(armed));
    notes.log.crash();
    EXPECT_EQ(notes.log.era(), armed + 1);
    EXPECT_TRUE(notes.log.stale(armed));
    notes.log.fence();
    EXPECT_EQ(notes.log.era(), armed + 2);
}

} // namespace
} // namespace monatt::proto
