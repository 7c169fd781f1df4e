/**
 * @file
 * Simulated durable storage: a write-ahead journal with fsync
 * barriers, CRC32C-framed records, and a sealed checkpoint snapshot.
 *
 * Every stateful control-plane entity (CloudController, the
 * Attestation Servers, the PrivacyCA) owns one StableStore modelling
 * its local disk. The store survives `crash()` the way a disk
 * survives a power cut: records appended since the last `sync()` are
 * the in-flight page cache and are lost; everything synced before the
 * crash — plus the last `checkpoint()` snapshot — replays on
 * recovery in LSN order.
 *
 * Each journal record is framed with a CRC32C over (lsn, type,
 * payload) and the snapshot is sealed with a CRC32C over (covered
 * LSN, blob). With a StorageFaultModel installed, `crash()` applies
 * disk-side failures: part of the un-synced tail may persist anyway
 * (torn write), the boundary record may land half-written, records
 * past the boundary may persist out of order (LSN gap), and durable
 * frames may bit-rot. `replay()` then *verifies*: it finds the
 * longest checksummed, chain-linked prefix (every frame back-points
 * at the LSN it was written on top of, so gaps left by legitimately
 * lost un-synced records verify while reorder gaps do not), truncates
 * everything behind the first bad frame (self-healing), and reports
 * what it dropped in the RecoveryImage verdict instead of silently
 * handing out garbage.
 *
 * The store is deliberately simulation-friendly:
 *  - appends cost zero simulated time, so a clean-wire run with
 *    journaling enabled is byte-identical to one without;
 *  - every storage-fault verdict is a pure function of (seed, node,
 *    LSN), so a same-seed re-run corrupts the same records;
 *  - `digest()` folds the durable image into one 64-bit value so
 *    determinism tests can compare stores across runs.
 *
 * Record payloads are opaque `Bytes` produced by `common/codec`
 * writers; the store itself never interprets them.
 */

#ifndef MONATT_SIM_STABLE_STORE_H
#define MONATT_SIM_STABLE_STORE_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "sim/storage_faults.h"

namespace monatt::sim
{

/** One journal entry: monotone LSN, entity-defined type tag, payload. */
struct JournalRecord
{
    std::uint64_t lsn = 0;
    std::uint16_t type = 0;
    Bytes payload;
};

/** Operation counters, exposed for tests and benches. */
struct StableStoreStats
{
    std::uint64_t appends = 0;      //!< records appended (volatile)
    std::uint64_t appendBatches = 0; //!< adoptMany calls
    std::uint64_t syncs = 0;        //!< fsync barriers issued
    std::uint64_t checkpoints = 0;  //!< snapshots taken
    std::uint64_t crashes = 0;      //!< simulated power cuts
    std::uint64_t recordsLost = 0;  //!< un-synced records dropped by crashes
    std::uint64_t recordsReplayed = 0; //!< records handed out by replay()

    // Storage-fault injection (what crash() did to the disk).
    std::uint64_t recordsTornPersisted = 0; //!< un-synced records that
                                            //!< reached the platter
    std::uint64_t recordsHalfWritten = 0; //!< boundary records landed torn
    std::uint64_t recordsReordered = 0; //!< orphans persisted past a gap
    std::uint64_t recordsRotted = 0;    //!< durable frames bit-rotted
    std::uint64_t snapshotsRotted = 0;  //!< snapshot seals bit-rotted

    // Verification (what replay()/verifyDurable() refused to serve).
    std::uint64_t recordsQuarantined = 0; //!< bad frame: CRC or LSN gap
    std::uint64_t recordsTruncated = 0; //!< intact but behind a bad frame
    std::uint64_t snapshotsQuarantined = 0; //!< snapshot seal failures
};

/**
 * Write-ahead journal + snapshot for one simulated node.
 *
 * Discipline expected of callers (the WAL rule): append a record for
 * every externally observable state mutation, and `sync()` before any
 * message that makes that mutation visible leaves the node. Crashes in
 * the simulator land between event-handler invocations, so a handler
 * that syncs at its end never loses acknowledged state.
 */
class StableStore
{
  public:
    /** Replay image: last snapshot (if any) plus post-snapshot
     * journal, with a verification verdict. */
    struct RecoveryImage
    {
        bool hasSnapshot = false;
        Bytes snapshot;
        std::vector<JournalRecord> records; //!< LSN order, verified

        /** True when the durable image verified end to end. */
        bool clean = true;
        /** Frames dropped because they were unusable (bad CRC, or an
         * LSN gap in front of them). */
        std::uint64_t quarantinedRecords = 0;
        /** Intact frames dropped only because they sat behind a
         * quarantined one. */
        std::uint64_t truncatedRecords = 0;
        /** The snapshot seal failed; snapshot AND journal dropped. */
        bool snapshotQuarantined = false;
    };

    /** What verifyDurable() dropped from the durable image. */
    struct HealSummary
    {
        std::uint64_t quarantinedRecords = 0;
        std::uint64_t truncatedRecords = 0;
        bool snapshotQuarantined = false;

        bool clean() const
        {
            return quarantinedRecords == 0 && truncatedRecords == 0 &&
                   !snapshotQuarantined;
        }
    };

    /**
     * @param nodeId Owning node's id, used for the digest salt, the
     *               storage-fault draws, and diagnostics.
     */
    explicit StableStore(std::string nodeId = "");

    /**
     * Install the storage-failure model (nullptr disables). The model
     * is consulted by crash(); clean-path operations never touch it.
     * The pointer must outlive the store (core::Cloud owns the plan).
     */
    void setFaultModel(const StorageFaultModel *model)
    {
        faults = (model != nullptr && model->enabled()) ? model : nullptr;
    }

    /**
     * Append a record to the journal tail. The record is *volatile*
     * (page cache) until the next sync()/checkpoint(); a crash before
     * then loses it.
     *
     * @return The record's LSN (monotone, starts at 1).
     */
    std::uint64_t append(std::uint16_t type, Bytes payload);

    /** Fsync barrier: make every appended record durable. The whole
     * buffered tail moves in one bulk splice (group commit), not
     * record by record. */
    void sync();

    /**
     * Atomically replace snapshot + journal with one snapshot blob.
     *
     * The snapshot is expected to capture the entity's *current*
     * in-memory state, which already reflects any still-buffered
     * journal tail — so both the durable journal and the buffered
     * tail are superseded and discarded. Durable immediately (a
     * checkpoint is itself a sync). The blob is sealed with a CRC32C
     * so replay can detect snapshot rot.
     */
    void checkpoint(Bytes snapshot);

    /**
     * Simulated power cut: drop the un-synced journal tail. With a
     * fault model installed this is where the disk misbehaves — torn
     * tail persistence, half-writes, reordered orphans, and bit-rot
     * of durable frames are all applied here, each a pure function of
     * (seed, node, LSN).
     */
    void crash();

    /**
     * Verified durable image for recovery; counts replayed records.
     * Self-healing: corrupt or unreachable frames are truncated from
     * the durable journal (so lastDurableLsn() regresses to the
     * verified horizon and replication re-streams the gap) and
     * reported via the verdict fields — never silently replayed.
     */
    RecoveryImage replay();

    /**
     * Verify and heal the durable image without materializing a
     * replay copy. A restarting replica mirror runs this before
     * acking its position to the leader: truncating a corrupt suffix
     * lowers lastDurableLsn(), which makes the leader re-stream the
     * damaged range through the normal replication path.
     */
    HealSummary verifyDurable();

    /**
     * Streaming hooks for journal replication. A shard leader streams
     * its durable suffix to followers; a follower adopts records with
     * the leader's LSNs, or installs a full snapshot when it has
     * fallen behind the leader's checkpoint horizon.
     */

    /** LSN covered by the current snapshot (0 when none). */
    std::uint64_t snapshotLsn() const { return snapshotLsn_; }

    /** Highest durable LSN, counting the snapshot horizon. */
    std::uint64_t lastDurableLsn() const
    {
        return durable.empty() ? snapshotLsn_ : durable.back().rec.lsn;
    }

    /** Current snapshot blob (empty when none was taken). */
    const Bytes &snapshotBytes() const { return snapshot; }

    /** Durable records with LSN strictly greater than `lsn`. */
    std::vector<JournalRecord> durableSince(std::uint64_t lsn) const;

    /**
     * Visit durable records with LSN strictly greater than `lsn`
     * without materializing a copy. Starts at the right offset by
     * binary search (LSNs are strictly increasing), so a leader
     * streaming its tail pays O(log n + tail) instead of O(journal).
     */
    template <typename Fn>
    void
    forEachDurableSince(std::uint64_t lsn, Fn &&fn) const
    {
        for (auto it = firstAfter(lsn); it != durable.end(); ++it)
            fn(it->rec);
    }

    /** Adopt a contiguous batch of replicated records verbatim,
     * preserving the leader's LSNs (a follower applying a leader's
     * streamed tail). Volatile until the next sync(), like append(). */
    void adoptMany(std::vector<JournalRecord> records);

    /**
     * Replace the entire durable image with a leader snapshot that
     * covers everything up to `lsn`. Durable immediately.
     */
    void installSnapshot(Bytes snap, std::uint64_t lsn);

    /**
     * Drop durable records with LSN greater than `lsn` (and any
     * buffered tail): a follower truncating a divergent suffix before
     * adopting the new leader's log.
     */
    void truncateTo(std::uint64_t lsn);

    /** Records appended but not yet synced. */
    std::size_t pendingRecords() const { return buffered.size(); }

    /** Durable journal records (excludes the snapshot). */
    std::size_t durableRecords() const { return durable.size(); }

    /** Durable journal payload bytes, O(1) (excludes the snapshot);
     * this is the CheckpointPolicy size-trigger input. */
    std::size_t journalBytes() const { return journalBytes_; }

    /** Total durable payload bytes (journal + snapshot). */
    std::size_t durableBytes() const
    {
        return journalBytes_ + (snapshotValid ? snapshot.size() : 0);
    }

    /** True when nothing durable exists (fresh disk). */
    bool empty() const { return durable.empty() && !snapshotValid; }

    /** FNV-1a digest of the durable image (snapshot + journal). */
    std::uint64_t digest() const;

    const StableStoreStats &stats() const { return counters; }

    const std::string &node() const { return nodeId; }

  private:
    /**
     * A journal record as it sits on the simulated platter: payload
     * plus the stored frame CRC and the back-pointer to the LSN this
     * record was written on top of. The back-pointer is what lets
     * verification tell a legitimate gap (un-synced records lost in
     * an earlier crash; the writer knowingly chained past them) from
     * a reorder gap (the writer believed the missing record was in
     * the same sync). `rotted` guards idempotency — the fault model's
     * verdict for a given (node, LSN) never changes, so without the
     * guard a second crash would XOR the corruption back out and
     * resurrect the record.
     */
    struct Frame
    {
        JournalRecord rec;
        std::uint64_t prevLsn = 0; //!< LSN this record chains onto.
        std::uint32_t crc = 0;
        bool rotted = false;
    };

    static Frame seal(JournalRecord rec);

    /** LSN a record appended right now would chain onto. */
    std::uint64_t chainTail() const
    {
        return buffered.empty() ? lastDurableLsn()
                                : buffered.back().rec.lsn;
    }
    static std::uint32_t frameCrc(const JournalRecord &rec);
    static std::uint32_t snapshotCrc(const Bytes &snap,
                                     std::uint64_t coveredLsn);

    /** Apply the installed fault model to a power cut. */
    void crashWithFaults();

    /** Bit-rot one byte of a durable frame (or its stored CRC). */
    void rotFrame(Frame &frame);

    /** Verify seal + frames; truncate everything unreachable. */
    HealSummary heal();

    /** First durable frame with LSN strictly greater than `lsn`. */
    std::vector<Frame>::const_iterator
    firstAfter(std::uint64_t lsn) const
    {
        return std::upper_bound(durable.begin(), durable.end(), lsn,
                                [](std::uint64_t v, const Frame &f) {
                                    return v < f.rec.lsn;
                                });
    }

    std::string nodeId;
    std::uint64_t nextLsn = 1;
    std::vector<Frame> buffered; //!< appended, not yet synced
    std::vector<Frame> durable;  //!< synced, survives crashes
    std::size_t journalBytes_ = 0; //!< durable payload bytes, incremental
    Bytes snapshot;
    bool snapshotValid = false;
    bool snapshotRotted = false;
    std::uint32_t snapshotCrc_ = 0; //!< Seal over (covered LSN, blob).
    std::uint64_t snapshotLsn_ = 0; //!< Highest LSN the snapshot covers.
    const StorageFaultModel *faults = nullptr;
    StableStoreStats counters;
};

} // namespace monatt::sim

#endif // MONATT_SIM_STABLE_STORE_H
