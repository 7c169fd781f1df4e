#include "proto/durable_log.h"

#include "common/logging.h"

namespace monatt::proto
{

DurableLog::DurableLog(std::string nodeId, bool enabled,
                       sim::CheckpointPolicyConfig policy,
                       SnapshotFn snapshotFn, ApplyFn applyFn)
    : disk(std::move(nodeId)), ckpt(policy), snapshot(std::move(snapshotFn)),
      apply(std::move(applyFn)), on(enabled)
{
}

bool
DurableLog::sync()
{
    if (disk.pendingRecords() == 0)
        return false;
    disk.sync();
    return true;
}

void
DurableLog::checkpointIfDue(SimTime now)
{
    if (!on || muted || !ckpt.shouldCheckpoint(disk, now))
        return;
    disk.checkpoint(encode(snapshot()));
    ckpt.noteCheckpoint();
}

void
DurableLog::commit(SimTime now)
{
    if (!on || muted)
        return;
    sync();
    checkpointIfDue(now);
}

void
DurableLog::recover(const std::function<void()> &rearm)
{
    if (!on)
        return;
    ++recoveries_;
    muted = true;
    auto image = disk.replay();
    if (!image.clean) {
        // The disk came back damaged: replay healed it down to the
        // longest verified prefix. Whatever the dropped suffix held is
        // re-driven by retransmission and re-arm paths, never
        // silently replayed.
        ++corruptRecoveries_;
        MONATT_LOG(Info, "durable")
            << disk.node() << ": replay quarantined "
            << image.quarantinedRecords << " and truncated "
            << image.truncatedRecords << " corrupt journal records"
            << (image.snapshotQuarantined ? " (snapshot seal failed)"
                                          : "");
    }
    if (image.hasSnapshot) {
        if (auto snap = decode<Snapshot>(image.snapshot)) {
            for (ReplicatedRecord &rec : snap.value().records)
                apply({rec.lsn, rec.type, std::move(rec.payload)});
        }
    }
    for (const sim::JournalRecord &rec : image.records)
        apply(rec);
    muted = false;
    if (rearm)
        rearm();
    disk.checkpoint(encode(snapshot()));
    ckpt.noteCheckpoint();
}

void
DurableLog::verifyMirror()
{
    if (!on)
        return;
    const auto healed = disk.verifyDurable();
    if (healed.clean())
        return;
    // Healing truncated the bad suffix, so the next ack reports the
    // verified horizon and the leader re-streams the damaged range.
    ++corruptRecoveries_;
    MONATT_LOG(Info, "durable")
        << disk.node() << ": mirror verification quarantined "
        << healed.quarantinedRecords << " and truncated "
        << healed.truncatedRecords << " records; resyncing from lsn "
        << disk.lastDurableLsn();
}

void
DurableLog::crash()
{
    fence();
    if (on)
        disk.crash();
}

} // namespace monatt::proto
