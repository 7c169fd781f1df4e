/**
 * @file
 * Simulated cloud network fabric.
 *
 * Models the data-center LAN of the paper's testbed ("on-board dual
 * Gigabit network adapter with 1 Gbps speed"): point-to-point delivery
 * with per-link latency and bandwidth, driven by the discrete-event
 * queue. An optional adversary hook sits on the wire and may observe,
 * modify, drop, delay, replay or inject datagrams — the active
 * Dolev-Yao attacker of §3.3 ("an active adversary who has full
 * control of the network between different servers").
 */

#ifndef MONATT_NET_NETWORK_H
#define MONATT_NET_NETWORK_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/time_types.h"
#include "net/message.h"
#include "sim/event_queue.h"
#include "sim/fault_plan.h"

namespace monatt::net
{

/** Per-link characteristics. */
struct LinkParams
{
    SimTime latency = usec(100);       //!< One-way propagation delay.
    double megabitsPerSecond = 1000.0; //!< 1 Gbps default (paper).
};

/** Counters exposed for evaluation and debugging. */
struct NetworkStats
{
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t droppedByAdversary = 0;
    std::uint64_t modifiedByAdversary = 0;
    std::uint64_t injected = 0;
    std::uint64_t undeliverable = 0;
    std::uint64_t bytesSent = 0;

    // Fault-plan effects (distinct from the adversary counters).
    std::uint64_t droppedByFault = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t delayedByFault = 0;
    std::uint64_t partitioned = 0;

    // Send-deliver slab: envelope slots. At steady state reuses
    // dominate and allocs stay flat at the in-flight high-water mark.
    std::uint64_t envelopeAllocs = 0; //!< fresh slab slots created
    std::uint64_t envelopeReuses = 0; //!< slots served from the free list
};

/**
 * The simulated network.
 *
 * Nodes register a receive handler under a NodeId. send() schedules
 * delivery after the link's latency plus serialization time, and
 * never ahead of an earlier datagram between the same two nodes
 * unless a fault delayed that one. The adversary hook — when
 * installed — sees every datagram before delivery and decides its
 * fate.
 */
class Network
{
  public:
    using Handler = std::function<void(const Envelope &)>;

    /**
     * Adversary verdicts: return the (possibly modified) envelope to
     * forward it, or std::nullopt to drop it. The hook may also call
     * inject() to add extra datagrams (replays, forgeries).
     */
    using AdversaryHook =
        std::function<std::optional<Envelope>(const Envelope &)>;

    explicit Network(sim::EventQueue &eq) : events(eq) {}

    /** Register (or replace) the receive handler for a node. */
    void registerNode(const NodeId &id, Handler handler);

    /** Remove a node; in-flight datagrams to it become undeliverable. */
    void unregisterNode(const NodeId &id);

    /** Configure the link between two nodes (symmetric). */
    void setLink(const NodeId &a, const NodeId &b, LinkParams params);

    /** Default parameters for unconfigured links. */
    void setDefaultLink(LinkParams params) { defaultLink = params; }

    /**
     * Send a datagram from env.src to env.dst.
     *
     * Passes through the adversary hook (if any), then schedules
     * delivery on the event queue.
     */
    void send(Envelope env);

    /** Adversary-side injection: bypasses the hook (it is the hook). */
    void inject(Envelope env);

    /** Install or clear (nullptr) the wire adversary. */
    void setAdversary(AdversaryHook hook) { adversary = std::move(hook); }

    /**
     * Install or clear (nullptr) a deterministic fault plan. The plan
     * composes with the adversary: the adversary hook sees datagrams
     * first (it models an attacker at the sender's switch), then the
     * fault plan decides loss/partition/delay/duplication. Not owned;
     * must outlive the network or be cleared first.
     */
    void setFaultPlan(const sim::FaultPlan *plan) { faults = plan; }

    /** Serialization+propagation delay for a datagram of `bytes`. */
    SimTime transferTime(const NodeId &a, const NodeId &b,
                         std::size_t bytes) const;

    const NetworkStats &stats() const { return counters; }

    sim::EventQueue &eventQueue() { return events; }

  private:
    void deliver(Envelope env, SimTime extraDelay = 0);
    void deliverCopy(const Envelope &env, SimTime extraDelay);
    void scheduleDelivery(Envelope *slot, SimTime extraDelay);
    void dispatch(Envelope *slot);
    Envelope *acquireSlot();
    void releaseSlot(Envelope *slot);
    const LinkParams &linkBetween(const NodeId &a, const NodeId &b) const;

    sim::EventQueue &events;
    std::map<NodeId, Handler> nodes;
    std::map<std::pair<NodeId, NodeId>, LinkParams> links;
    /** Latest fault-free delivery per (src, dst): the in-order floor. */
    std::map<std::pair<NodeId, NodeId>, SimTime> lastDelivery;
    LinkParams defaultLink;
    AdversaryHook adversary;
    const sim::FaultPlan *faults = nullptr;
    NetworkStats counters;

    /**
     * Envelope slab for the send-deliver path. Every in-flight
     * datagram rides in a pooled Envelope slot, so the delivery
     * callback captures 16 bytes (this + slot pointer) and stays in
     * the event kernel's inline storage — the old per-datagram
     * std::function heap block is gone. The slab owns every slot it
     * ever created (free or in flight), so envelopes pending on a
     * torn-down event queue are still reclaimed.
     */
    std::vector<std::unique_ptr<Envelope>> envelopeSlab;
    std::vector<Envelope *> freeEnvelopes;
};

} // namespace monatt::net

#endif // MONATT_NET_NETWORK_H
