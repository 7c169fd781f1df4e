/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The simulated cloud is single-clocked: network message deliveries,
 * periodic attestation timers and VM lifecycle stage completions are
 * events on one EventQueue, and the hypervisors' scheduler timers are
 * host timers the same queue drains. Events at equal timestamps
 * execute in scheduling order (FIFO via a monotone sequence number),
 * which keeps every simulation deterministic.
 *
 * Layout (the hot path of large fleets):
 *  - The pending set is a flat 4-ary min-heap of 24-byte nodes
 *    (timestamp, sequence, slot index). Sift operations move small
 *    PODs and touch 4 children per cache line-ish level, never the
 *    callbacks themselves.
 *  - Callbacks live in a parallel slot table and never move while
 *    pending. Each slot carries a generation counter; an EventId is
 *    (generation << 32) | slot, so cancel() is a generation check
 *    plus one indexed heap removal — O(log n), no tombstone set, and
 *    cancelling an already-fired or never-issued id is a true no-op
 *    (the old kernel leaked such ids into a tombstone set forever).
 *  - Callbacks are InlineFunction<48>: captures up to 48 bytes (a
 *    `this` pointer plus a few ids — every timer in the codebase)
 *    store inline, so scheduling does not heap-allocate.
 *
 * Host timers (sim/host_timers.h) live beside the heap: each host's
 * guest-CPU scheduler keeps its own small timer set, keyed by
 * (when, seq) from this queue's one counter. runOne() either drains
 * every host timer whose key precedes the next global event, or runs
 * that event, so every host sees the exact order one heap would give
 * it. pending() and nextEventTime() report global events only;
 * run(until) drains host timers through `until`, and executed()
 * counts host timer fires too.
 */

#ifndef MONATT_SIM_EVENT_QUEUE_H
#define MONATT_SIM_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time_types.h"
#include "sim/inline_function.h"

namespace monatt::sim
{

class HostTimers;

/**
 * Handle identifying a scheduled event (for cancellation).
 *
 * Encodes (slot generation << 32) | slot index. Generations start at
 * 1, so 0 is never a valid id — `EventId x = 0` is the idiomatic
 * "none pending" sentinel and cancel(0) is a no-op. Ids are never
 * reissued: a reused slot carries a bumped generation, so a stale id
 * held across a slot's reuse can never cancel the newer event.
 */
using EventId = std::uint64_t;

/** Deterministic discrete-event queue with a simulated clock. */
class EventQueue
{
  public:
    using Callback = InlineFunction<48>;

    /**
     * Current simulated time. While host timers drain it is the firing
     * host's time, which may step back between hosts; after a drain it
     * is the latest time fired.
     */
    SimTime now() const { return currentTime; }

    /**
     * Schedule `callback` at absolute time `when`.
     *
     * @param label Optional debugging label; must point at storage that
     *              outlives the event (string literals in practice).
     *              Stored as a raw pointer so scheduling never
     *              heap-allocates for it.
     * @throws std::invalid_argument when `when` is in the past.
     * @throws std::logic_error from a host timer: host code never
     *         schedules global events.
     */
    EventId schedule(SimTime when, Callback callback,
                     const char *label = nullptr);

    /** Schedule `callback` after a relative delay. */
    EventId scheduleAfter(SimTime delay, Callback callback,
                          const char *label = nullptr);

    /**
     * Cancel a pending event. No-op when the event already fired, was
     * already cancelled, or the id was never issued (including 0).
     */
    void cancel(EventId id);

    /**
     * One step: fire every host timer whose key precedes the next
     * global event, or, when none does, run that event. With no global
     * event pending, fire the earliest host timer.
     * @return false when nothing is pending at all.
     */
    bool runOne();

    /**
     * Run all events and host timers with timestamps <= `until`, then
     * advance the clock to `until` (unless `until` is kTimeNever).
     * @return Number of events and host timers executed.
     */
    std::size_t run(SimTime until);

    /** Run until nothing is pending (bounded by maxEvents as a runaway
     * backstop). @return Number of events and host timers executed. */
    std::size_t runAll(std::size_t maxEvents = 100000000);

    /** Advance the clock by `delta`, executing everything due. */
    void advance(SimTime delta);

    /** Timestamp of the next pending global event, or kTimeNever when
     * none is pending. Host timers are not reported. */
    SimTime nextEventTime() const;

    /** Number of pending (non-cancelled) global events. */
    std::size_t pending() const { return heap.size(); }

    /** Total events and host timers executed since construction. */
    std::size_t executed() const { return executedCount; }

    // --- Introspection (tests) ----------------------------------------

    /** Slots ever allocated: peak concurrent pending events. Bounded
     * by the workload's high-water mark, never by cancel history. */
    std::size_t slotCapacity() const { return slots.size(); }

    /** Slots currently on the free list. */
    std::size_t freeSlots() const { return freeList.size(); }

  private:
    friend class HostTimers;

    static constexpr std::uint32_t kNotInHeap = 0xffffffffu;
    static constexpr std::size_t kArity = 4;

    /** One pending entry on the flat heap; small so sifts stay cheap. */
    struct HeapNode
    {
        SimTime when;
        std::uint64_t seq; //!< FIFO tie-break among equal timestamps.
        std::uint32_t slot;
    };

    /** Stationary per-event state, indexed by HeapNode::slot. */
    struct Slot
    {
        Callback callback;
        const char *label = nullptr;
        std::uint32_t generation = 1;
        std::uint32_t heapPos = kNotInHeap;
    };

    static bool
    before(const HeapNode &a, const HeapNode &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    std::uint32_t acquireSlot(Callback callback, const char *label);
    void releaseSlot(std::uint32_t slot);
    void siftUp(std::size_t pos);
    void siftDown(std::size_t pos);
    void removeAt(std::size_t pos);

    /** Fire, host by host, every host timer keyed before (when, seq).
     * @return Whether any fired. */
    bool drainHosts(SimTime when, std::uint64_t seq);

    std::vector<HeapNode> heap; //!< Flat 4-ary min-heap.
    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeList; //!< Reusable slot indices.
    SimTime currentTime = 0;
    std::uint64_t nextSeq = 1;
    std::size_t executedCount = 0;
    std::vector<HostTimers *> hosts; //!< Registered by HostTimers.
    bool draining = false;           //!< Host timers are firing.
};

} // namespace monatt::sim

#endif // MONATT_SIM_EVENT_QUEUE_H
