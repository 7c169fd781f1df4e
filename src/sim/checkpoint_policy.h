/**
 * @file
 * Shared journal-compaction policy for the durable control-plane
 * entities (CloudController, AttestationServer, PrivacyCa).
 *
 * PR 4–7 each entity hand-rolled the same "checkpoint once the
 * journal holds N records" check; this class owns the trigger and
 * adds two more axes from ROADMAP's journal-compaction SLO item:
 *  - size:  checkpoint once the durable journal's payload bytes
 *           exceed a bound (bounds replay *bytes* scanned, not just
 *           record count — records vary from tens of bytes to KBs);
 *  - age:   checkpoint once the oldest un-checkpointed record has
 *           been sitting in the journal longer than a bound (bounds
 *           how much history a recovery must re-read after a mostly
 *           idle period).
 *
 * Triggers are evaluated at commit points (the end of a mutating
 * event handler) and depend only on journal state and simulated
 * time, so checkpoint cadence is bit-identical across same-seed
 * runs. An idle node whose journal never grows is never woken just
 * to checkpoint — age is a bound on history replayed, not a timer.
 */

#ifndef MONATT_SIM_CHECKPOINT_POLICY_H
#define MONATT_SIM_CHECKPOINT_POLICY_H

#include <cstddef>

#include "common/time_types.h"
#include "sim/stable_store.h"

namespace monatt::sim
{

/** Trigger thresholds; 0 disables an axis. */
struct CheckpointPolicyConfig
{
    /** Checkpoint once the durable journal holds this many records. */
    std::size_t everyRecords = 512;

    /** Checkpoint once the durable journal's payload exceeds this
     * many bytes (excludes the snapshot itself). */
    std::size_t everyBytes = 0;

    /** Checkpoint once the oldest un-checkpointed record is older
     * than this much simulated time. */
    SimTime maxAge = 0;
};

/** Per-entity trigger state (the age baseline). */
class CheckpointPolicy
{
  public:
    CheckpointPolicy() = default;
    explicit CheckpointPolicy(CheckpointPolicyConfig config)
        : cfg(config)
    {
    }

    const CheckpointPolicyConfig &config() const { return cfg; }

    /**
     * Evaluate the triggers against the store's durable journal.
     * Call at a commit point (after sync); when it returns true the
     * caller checkpoints and then calls noteCheckpoint().
     */
    bool shouldCheckpoint(const StableStore &store, SimTime now)
    {
        if (store.durableRecords() == 0) {
            oldestAt = kTimeNever;
            return false;
        }
        if (oldestAt == kTimeNever)
            oldestAt = now;
        if (cfg.everyRecords > 0 &&
            store.durableRecords() >= cfg.everyRecords)
            return true;
        if (cfg.everyBytes > 0 &&
            store.journalBytes() >= cfg.everyBytes)
            return true;
        if (cfg.maxAge > 0 && now - oldestAt >= cfg.maxAge)
            return true;
        return false;
    }

    /** Reset the age baseline after any checkpoint (policy-triggered
     * or not — recovery checkpoints too). */
    void noteCheckpoint() { oldestAt = kTimeNever; }

  private:
    CheckpointPolicyConfig cfg;
    /** Commit time at which the journal was first seen non-empty
     * since the last checkpoint; kTimeNever = journal empty. */
    SimTime oldestAt = kTimeNever;
};

} // namespace monatt::sim

#endif // MONATT_SIM_CHECKPOINT_POLICY_H
