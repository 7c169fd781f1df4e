/**
 * @file
 * Deterministic TCB/firmware-rollback attacker model — the
 * measured-state counterpart of the network FaultPlan.
 *
 * "Insecure Until Proven Updated" (Buhren et al.) shows that remote
 * attestation is only as strong as the firmware version that produced
 * the quote: an attacker who downgrades a host to a
 * vulnerable-but-validly-signed firmware build, or who replays a
 * stale quote captured before an upgrade, defeats a verifier that
 * never checks TCB freshness. This model injects both attacks:
 *
 *  - *Rollback*: the node genuinely runs the old firmware again, so
 *    its quotes honestly report the downgraded TCB version (valid
 *    signature, stale content).
 *  - *Stale replay*: a compromised node re-signs a previously sent
 *    measurement set under its current session key, presenting old
 *    evidence for a fresh challenge. The signature and quote verify;
 *    only the verifier's nonce-freshness check can catch it.
 *
 * Every verdict is a pure function of (seed, node id): no mutable
 * state, no host randomness, no dependence on simulated time. Two
 * runs with the same seed compromise the same nodes, which is what
 * keeps the rollback-chaos sweeps bit-identical.
 */

#ifndef MONATT_SIM_ROLLBACK_FAULTS_H
#define MONATT_SIM_ROLLBACK_FAULTS_H

#include <cstdint>
#include <string>

namespace monatt::sim
{

/** Per-node attack probabilities (all default off). */
struct RollbackFaultConfig
{
    /**
     * Firmware rollback: the node runs (and honestly measures) the
     * downgraded firmware build, reporting `rollbackVersion` instead
     * of its configured TCB version. Per node.
     */
    double rollbackProbability = 0;

    /** TCB version a rolled-back node reports (the vulnerable build
     * the attacker downgraded to). */
    std::uint64_t rollbackVersion = 1;

    /**
     * Stale-quote replay: the node answers fresh measurement
     * challenges by re-signing its previously sent measurement set
     * (old nonce N3 and all) under the current session key. Per node.
     */
    double staleReplayProbability = 0;

    /** True when any axis is armed. */
    bool any() const
    {
        return rollbackProbability > 0 || staleReplayProbability > 0;
    }
};

/** Compiled model: pure verdicts over (seed, node). */
class RollbackFaultModel
{
  public:
    RollbackFaultModel(std::uint64_t seed, RollbackFaultConfig config);

    bool enabled() const { return cfg.any(); }
    const RollbackFaultConfig &config() const { return cfg; }

    /** Is this node rolled back to the vulnerable firmware build? */
    bool rollsBack(const std::string &node) const;

    /** Does this node replay stale measurements for fresh nonces? */
    bool replaysStale(const std::string &node) const;

    /** The downgraded TCB version a rolled-back node reports. */
    std::uint64_t rollbackVersion() const { return cfg.rollbackVersion; }

  private:
    /** One pure 64-bit draw for a (node, purpose) pair. */
    std::uint64_t draw(const std::string &node, std::uint64_t salt) const;

    RollbackFaultConfig cfg;
    std::uint64_t seed;
};

} // namespace monatt::sim

#endif // MONATT_SIM_ROLLBACK_FAULTS_H
