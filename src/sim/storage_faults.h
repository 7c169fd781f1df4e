/**
 * @file
 * Deterministic storage-failure model for the simulated durable
 * stores — the disk-side counterpart of the network FaultPlan.
 *
 * The paper (§3.3) models an active adversary but assumes nodes come
 * back from a crash with intact storage. Real machines lose power
 * mid-write (the un-synced tail is torn: a prefix reached the
 * platter, the boundary sector may be half-written) and suffer media
 * bit-rot over an outage. This model injects both, plus lost-sync
 * reordering (a record past the torn boundary that persisted out of
 * order, leaving an LSN gap in front of it).
 *
 * Every verdict is a pure function of (seed, node id, LSN): no
 * mutable state, no host randomness, no dependence on simulated
 * time. Two runs with the same seed make identical storage-fault
 * decisions, which is what keeps the storage-chaos sweeps
 * bit-identical. A record doomed to
 * rot is doomed from birth — re-evaluating the verdict at a later
 * crash returns the same answer, so applying it is idempotent.
 */

#ifndef MONATT_SIM_STORAGE_FAULTS_H
#define MONATT_SIM_STORAGE_FAULTS_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace monatt::sim
{

/** Per-store failure probabilities (all default off). */
struct StorageFaultConfig
{
    /**
     * Torn tail-write: when the node crashes, each un-synced record —
     * walked in LSN order — reaches the platter anyway with this
     * probability; the persisted prefix ends at the first record that
     * misses. 0 reproduces the classic model (the whole page-cache
     * tail is lost).
     */
    double tornTailPersistProbability = 0;

    /**
     * The first record past the persisted prefix lands half-written
     * with this probability: a truncated frame whose checksum cannot
     * verify. Replay truncates it as part of the torn tail.
     */
    double halfWriteProbability = 0;

    /**
     * Lost-sync reordering: a record past the torn boundary persists
     * out of order with this probability, leaving an LSN gap before
     * it. Replay cannot order such orphans and quarantines them.
     */
    double reorderPersistProbability = 0;

    /**
     * Media bit-rot: a durable journal record's frame is corrupted by
     * the time the node power-cycles, with this probability per
     * (node, LSN). Applied at crash — rot only ever surfaces across a
     * power cycle, which is when replay runs.
     */
    double bitRotProbability = 0;

    /** Bit-rot of the sealed checkpoint snapshot, per (node,
     * snapshot LSN). A corrupt seal invalidates the snapshot and
     * everything journaled on top of it. */
    double snapshotRotProbability = 0;

    /** True when any axis is armed. */
    bool any() const
    {
        return tornTailPersistProbability > 0 ||
               halfWriteProbability > 0 ||
               reorderPersistProbability > 0 || bitRotProbability > 0 ||
               snapshotRotProbability > 0;
    }
};

/** Compiled model: pure verdicts over (seed, node, LSN). */
class StorageFaultModel
{
  public:
    StorageFaultModel(std::uint64_t seed, StorageFaultConfig config);

    bool enabled() const { return cfg.any(); }
    const StorageFaultConfig &config() const { return cfg; }

    /** Did this un-synced tail record reach the platter at the crash? */
    bool tailPersists(const std::string &node, std::uint64_t lsn) const;

    /** Is the boundary record (first one past the persisted prefix)
     * half-written rather than cleanly absent? */
    bool halfWrites(const std::string &node, std::uint64_t lsn) const;

    /** Did this post-boundary record persist out of order? */
    bool reorderPersists(const std::string &node,
                         std::uint64_t lsn) const;

    /** Has this durable record's frame rotted on the media? */
    bool rots(const std::string &node, std::uint64_t lsn) const;

    /** Has the sealed snapshot covering `snapshotLsn` rotted? */
    bool snapshotRots(const std::string &node,
                      std::uint64_t snapshotLsn) const;

    /** Which byte of an `n`-byte frame the rot flips (n > 0). */
    std::size_t corruptByte(const std::string &node, std::uint64_t lsn,
                            std::size_t n) const;

  private:
    /** One pure 64-bit draw for a (node, lsn, purpose) triple. */
    std::uint64_t draw(const std::string &node, std::uint64_t lsn,
                       std::uint64_t salt) const;

    StorageFaultConfig cfg;
    std::uint64_t seed;
};

} // namespace monatt::sim

#endif // MONATT_SIM_STORAGE_FAULTS_H
