/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The simulated cloud is single-clocked: the hypervisor's scheduler
 * ticks, network message deliveries, periodic attestation timers and
 * VM lifecycle stage completions are all events on one EventQueue.
 * Events at equal timestamps execute in scheduling order (FIFO via a
 * monotone sequence number), which keeps every simulation
 * deterministic.
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

    /** Current simulated time. */
    SimTime now() const { return currentTime; }

    /**
     * Schedule `callback` at absolute time `when`.
     *
     * @param label Optional debugging label; must point at storage that
     *              outlives the event (string literals in practice).
     *              Stored as a raw pointer so scheduling never
     *              heap-allocates for it.
     * @throws std::invalid_argument when `when` is in the past.
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

    /** Execute the next pending event. @return false when empty. */
    bool runOne();

    /**
     * Run all events with timestamps <= `until`, then advance the
     * clock to `until` (unless `until` is kTimeNever).
     * @return Number of events executed.
     */
    std::size_t run(SimTime until);

    /** Run until the queue drains (bounded by maxEvents as a runaway
     * backstop). @return Number of events executed. */
    std::size_t runAll(std::size_t maxEvents = 100000000);

    /** Advance the clock by `delta`, executing everything due. */
    void advance(SimTime delta);

    /** Timestamp of the next pending event, or kTimeNever when the
     * queue is empty. */
    SimTime nextEventTime() const;

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const { return heap.size(); }

    /** Total events executed since construction. */
    std::size_t executed() const { return executedCount; }

    // --- Introspection (tests) ----------------------------------------

    /** Slots ever allocated: peak concurrent pending events. Bounded
     * by the workload's high-water mark, never by cancel history. */
    std::size_t slotCapacity() const { return slots.size(); }

    /** Slots currently on the free list. */
    std::size_t freeSlots() const { return freeList.size(); }

  private:
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

    std::vector<HeapNode> heap; //!< Flat 4-ary min-heap.
    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeList; //!< Reusable slot indices.
    SimTime currentTime = 0;
    std::uint64_t nextSeq = 1;
    std::size_t executedCount = 0;
};

} // namespace monatt::sim

#endif // MONATT_SIM_EVENT_QUEUE_H
