/**
 * @file
 * The durable core of the three crash-recoverable control-plane
 * entities (CloudController, AttestationServer, PrivacyCa).
 *
 * DurableLog owns an entity's StableStore, its CheckpointPolicy, the
 * replay mute, the crash era and the recovery counters, and is the
 * only code that appends, commits, recovers and crashes. An entity
 * supplies two things: its checkpoint image (the records that rebuild
 * its state, as a proto::Snapshot) and its one applyJournalRecord,
 * which replays snapshot records and journal records alike.
 *
 * Every one of the three entities journals. Appends cost zero
 * simulated time and recovery runs only after a crash, so journaling
 * never moves a fault-free run's simulated clock.
 */

#ifndef MONATT_PROTO_DURABLE_LOG_H
#define MONATT_PROTO_DURABLE_LOG_H

#include <cstdint>
#include <functional>
#include <string>

#include "proto/messages.h"
#include "sim/checkpoint_policy.h"
#include "sim/stable_store.h"

namespace monatt::proto
{

/** One entity's write-ahead journal, checkpoints and crash era. */
class DurableLog
{
  public:
    /** The entity's checkpoint image: records that rebuild its state. */
    using SnapshotFn = std::function<Snapshot()>;
    /** The entity's one apply path for snapshot and journal records. */
    using ApplyFn = std::function<void(const sim::JournalRecord &)>;

    DurableLog(std::string nodeId, sim::CheckpointPolicyConfig policy,
               SnapshotFn snapshot, ApplyFn apply);

    void setPolicy(sim::CheckpointPolicyConfig config)
    {
        ckpt = sim::CheckpointPolicy(config);
    }

    sim::StableStore &store() { return disk; }
    const sim::StableStore &store() const { return disk; }

    /** True while recover() replays: appends are muted. */
    bool replaying() const { return muted; }

    /** Append one declared record of the entity's journal `type`. */
    template <typename Type, typename R>
    void append(Type type, const R &record)
    {
        if (!muted)
            disk.append(static_cast<std::uint16_t>(type), encode(record));
    }

    /** Fsync barrier. @return True when buffered records were synced. */
    bool sync();

    /** Checkpoint when the policy fires; call at a commit point. */
    void checkpointIfDue(SimTime now);

    /** The commit step at the end of a mutating event handler: sync,
     * then a policy checkpoint. */
    void commit(SimTime now);

    /**
     * Replay the healed durable image through the entity's apply path
     * (snapshot records first, then the journal), run `rearm` with the
     * journal unmuted, then take the recovery checkpoint: the
     * recovered state becomes the new snapshot and the journal
     * restarts empty.
     */
    void recover(const std::function<void()> &rearm = {});

    /** Verify and heal the durable image without replaying it (a
     * restarting replica mirror). */
    void verifyMirror();

    /**
     * Crash era. Deferred callbacks capture era() when they are armed
     * and bail when stale(): a callback armed before a crash (or a
     * replica step-down) can never act on the world after it.
     */
    std::uint64_t era() const { return era_; }
    bool stale(std::uint64_t era) const { return era != era_; }

    /** Fence every callback armed so far. */
    void fence() { ++era_; }

    /** Simulated power cut: fence, then drop the un-synced tail. */
    void crash();

    /** Recoveries run, and those that had to heal a torn or rotted
     * image. */
    std::uint64_t recoveries() const { return recoveries_; }
    std::uint64_t corruptRecoveries() const { return corruptRecoveries_; }

  private:
    sim::StableStore disk;
    sim::CheckpointPolicy ckpt;
    SnapshotFn snapshot;
    ApplyFn apply;
    bool muted = false;
    std::uint64_t era_ = 0;
    std::uint64_t recoveries_ = 0;
    std::uint64_t corruptRecoveries_ = 0;
};

} // namespace monatt::proto

#endif // MONATT_PROTO_DURABLE_LOG_H
