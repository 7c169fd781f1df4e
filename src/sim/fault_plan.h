/**
 * @file
 * Deterministic fault-injection plan for the simulated fabric.
 *
 * The paper assumes a reliable data-center LAN and only models an
 * *active* adversary (§3.3). A FaultPlan adds the missing *failure*
 * model: seeded, simulated-time-driven message loss (iid and bursty),
 * extra delay, duplication, link partitions between named node pairs,
 * and scheduled crash/restart of whole nodes.
 *
 * Every verdict is a pure function of (seed, simulated time,
 * datagram identity): no hidden mutable state, no host randomness.
 * Two runs with the same seed and the same traffic make identical
 * decisions, which keeps seeded simulations bit-identical.
 *
 * This layer deliberately knows nothing about net::Envelope — the
 * network calls decide() with plain strings — so monatt_net can keep
 * linking monatt_sim without a dependency cycle.
 */

#ifndef MONATT_SIM_FAULT_PLAN_H
#define MONATT_SIM_FAULT_PLAN_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/time_types.h"
#include "sim/event_queue.h"
#include "sim/rollback_faults.h"
#include "sim/storage_faults.h"

namespace monatt::sim
{

/** Per-datagram fault probabilities (applied to every link). */
struct LinkFaults
{
    /** iid drop probability per datagram, in [0, 1]. */
    double dropProbability = 0;

    /** Probability a datagram is delivered twice. */
    double duplicateProbability = 0;

    /** Extra one-way delay, uniform in [0, extraDelayMax]. */
    SimTime extraDelayMax = 0;

    /**
     * Bursty loss: simulated time is cut into windows of
     * `burstWindow`; each window is independently "bursty" with
     * probability `burstProbability` (a pure hash of seed and window
     * index, so the burst schedule carries no mutable state). Within
     * a bursty window every datagram is additionally dropped with
     * probability `burstDropProbability`.
     */
    double burstProbability = 0;
    SimTime burstWindow = msec(50);
    double burstDropProbability = 1.0;
};

/** A link partition between two named nodes (unordered pair). */
struct Partition
{
    std::string a;
    std::string b;
    SimTime from = 0;
    SimTime until = kTimeNever;
};

/** A scheduled crash (and optional restart) of one node. */
struct CrashEvent
{
    std::string node;
    SimTime crashAt = 0;
    SimTime restartAt = kTimeNever; //!< kTimeNever = never restarts.
};

/** The full plan. */
struct FaultPlanConfig
{
    std::uint64_t seed = 1;
    LinkFaults faults;
    std::vector<Partition> partitions;
    std::vector<CrashEvent> crashes;

    /** Disk-side failure axes (torn writes, bit-rot); shares `seed`
     * but draws with independent salts. Applied by the StableStores,
     * not the network — core::Cloud wires the compiled model into
     * every entity's store when the plan is installed. */
    StorageFaultConfig storage;

    /** TCB/firmware-rollback attacker axes (downgrade, stale-quote
     * replay); shares `seed` but draws with independent salts.
     * Applied by the cloud servers' measurement path, not the
     * network — core::Cloud wires the compiled model into every
     * server when the plan is installed. */
    RollbackFaultConfig rollback;

    /** Faults apply only inside [activeFrom, activeUntil). */
    SimTime activeFrom = 0;
    SimTime activeUntil = kTimeNever;
};

/** Fate of one datagram. */
struct FaultDecision
{
    bool drop = false;        //!< Lost (iid or burst loss).
    bool partitioned = false; //!< Lost to a link partition.
    SimTime extraDelay = 0;   //!< Added to the transfer time.
    int duplicates = 0;       //!< Extra copies delivered.
};

/**
 * A compiled fault plan. Install on net::Network with setFaultPlan();
 * the plan composes with (runs after) the adversary hook.
 */
class FaultPlan
{
  public:
    explicit FaultPlan(FaultPlanConfig config);

    /**
     * Decide the fate of one datagram. Pure: the verdict depends only
     * on the constructor seed and the arguments.
     *
     * @param src,dst,channel,seq Datagram identity (envelope header).
     * @param now Simulated send time.
     */
    FaultDecision decide(const std::string &src, const std::string &dst,
                         const std::string &channel, std::uint64_t seq,
                         SimTime now) const;

    /**
     * Schedule the plan's crash/restart events on `events`. The
     * callbacks receive the node id; wiring them to actual node
     * teardown/re-registration is the caller's job (core::Cloud).
     */
    void installCrashSchedule(
        EventQueue &events,
        std::function<void(const std::string &)> crash,
        std::function<void(const std::string &)> restart) const;

    const FaultPlanConfig &config() const { return cfg; }

    /** Compiled storage-failure model, or nullptr when no storage
     * axis is armed (stores then keep the zero-overhead clean path). */
    const StorageFaultModel *storage() const
    {
        return storageModel.enabled() ? &storageModel : nullptr;
    }

    /** Compiled rollback-attacker model, or nullptr when no rollback
     * axis is armed (servers then keep the clean measurement path). */
    const RollbackFaultModel *rollback() const
    {
        return rollbackModel.enabled() ? &rollbackModel : nullptr;
    }

  private:
    bool active(SimTime now) const
    {
        return now >= cfg.activeFrom && now < cfg.activeUntil;
    }

    /** One pure 64-bit draw for a (datagram, purpose) pair. */
    std::uint64_t draw(const std::string &src, const std::string &dst,
                       const std::string &channel, std::uint64_t seq,
                       std::uint64_t salt) const;

    FaultPlanConfig cfg;
    StorageFaultModel storageModel;
    RollbackFaultModel rollbackModel;
};

} // namespace monatt::sim

#endif // MONATT_SIM_FAULT_PLAN_H
