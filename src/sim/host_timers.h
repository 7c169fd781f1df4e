/**
 * @file
 * A host's private timer calendar, drained by the EventQueue.
 *
 * Each simulated host runs its guests' CPU on a credit scheduler whose
 * timers (the sampling tick, the accounting pass, one stop per pCPU,
 * one wake per vCPU) fire thousands of times per attestation. Pushing
 * each of them through the global event heap costs a heap push and
 * pop at fleet depth plus a callback dispatch; a HostTimers keeps them
 * in a small heap of its own, keyed by fixed timer ids.
 *
 * Ordering is exact. A timer's key is (when, seq) with seq drawn from
 * the owning EventQueue's one counter, so a host timer and a global
 * event compare exactly as two global events would. Before the queue
 * runs a global event it fires every host timer whose key comes
 * first; each host's timers fire in key order. Only timers of
 * different hosts may run in another order than one global heap would
 * run them, and those never interact: host code touches only its own
 * host, and it may not schedule global events (EventQueue::schedule
 * rejects that while host timers fire).
 */

#ifndef MONATT_SIM_HOST_TIMERS_H
#define MONATT_SIM_HOST_TIMERS_H

#include <cstdint>
#include <vector>

#include "common/time_types.h"

namespace monatt::sim
{

class EventQueue;

/** A host's timers; derive and implement onTimer(). */
class HostTimers
{
  public:
    /** Small dense timer identity chosen by the owner. */
    using TimerId = std::uint32_t;

    HostTimers(const HostTimers &) = delete;
    HostTimers &operator=(const HostTimers &) = delete;

    /** Arm `id` to fire at `when`, replacing an armed deadline.
     * @throws std::invalid_argument when `when` is in the past. */
    void arm(TimerId id, SimTime when);

    /** Disarm `id`; a no-op when it is not armed. */
    void disarm(TimerId id);

    /** True while `id` is armed. */
    bool
    armed(TimerId id) const
    {
        return id < position.size() && position[id] != kDisarmed;
    }

  protected:
    /** Registers with `queue`, which must outlive this object. */
    explicit HostTimers(EventQueue &queue);
    ~HostTimers();

    /** Run timer `id`; it is already disarmed, so it may re-arm. */
    virtual void onTimer(TimerId id) = 0;

  private:
    friend class EventQueue;
    class FiredRoot;

    static constexpr std::uint32_t kDisarmed = 0xffffffffu;

    struct Node
    {
        SimTime when;
        std::uint64_t seq;
        TimerId id;
    };

    static bool
    before(const Node &a, SimTime when, std::uint64_t seq)
    {
        return a.when != when ? a.when < when : a.seq < seq;
    }

    static bool
    before(const Node &a, const Node &b)
    {
        return before(a, b.when, b.seq);
    }

    /** True when the earliest timer's key precedes (when, seq). */
    bool
    dueBefore(SimTime when, std::uint64_t seq) const
    {
        return !heap.empty() && before(heap.front(), when, seq);
    }

    /**
     * Disarm and run the earliest timer. Its node stays at the root
     * while the handler runs: the handler's first arm() overwrites it
     * in place, and a handler that arms nothing or throws has it
     * removed on the way out, as if it had been removed before.
     */
    void fireNext();

    void place(std::size_t pos, const Node &node);
    /** Fill the hole at `pos` with `node` (not a heap element),
     * moving it up or down to where it belongs. */
    void siftUp(std::size_t pos, const Node &node);
    void siftDown(std::size_t pos, const Node &node);
    void removeAt(std::size_t pos);

    EventQueue &queue;
    std::vector<Node> heap;              //!< Binary min-heap.
    std::vector<std::uint32_t> position; //!< Heap index per id.
    /** heap[0] is the fired timer's node, no longer armed. Its key
     * precedes every armed key, so no sift ever moves it. */
    bool rootHeld = false;
};

} // namespace monatt::sim

#endif // MONATT_SIM_HOST_TIMERS_H
