#include "sim/event_queue.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sim/host_timers.h"

namespace monatt::sim
{

namespace
{

/** Marks the queue as draining host timers for one scope. */
class DrainScope
{
  public:
    explicit DrainScope(bool &flag) : flag(flag) { flag = true; }
    ~DrainScope() { flag = false; }

  private:
    bool &flag;
};

} // namespace

std::uint32_t
EventQueue::acquireSlot(Callback callback, const char *label)
{
    std::uint32_t s;
    if (!freeList.empty()) {
        s = freeList.back();
        freeList.pop_back();
    } else {
        s = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
    }
    Slot &slot = slots[s];
    slot.callback = std::move(callback);
    slot.label = label;
    return s;
}

void
EventQueue::releaseSlot(std::uint32_t s)
{
    Slot &slot = slots[s];
    slot.callback = Callback();
    slot.label = nullptr;
    slot.heapPos = kNotInHeap;
    // Bump the generation so every outstanding id for this slot goes
    // stale; a wrap skips 0 so no issued id ever equals the sentinel.
    if (++slot.generation == 0)
        slot.generation = 1;
    freeList.push_back(s);
}

void
EventQueue::siftUp(std::size_t pos)
{
    const HeapNode node = heap[pos];
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / kArity;
        if (!before(node, heap[parent]))
            break;
        heap[pos] = heap[parent];
        slots[heap[pos].slot].heapPos = static_cast<std::uint32_t>(pos);
        pos = parent;
    }
    heap[pos] = node;
    slots[node.slot].heapPos = static_cast<std::uint32_t>(pos);
}

void
EventQueue::siftDown(std::size_t pos)
{
    const HeapNode node = heap[pos];
    const std::size_t n = heap.size();
    for (;;) {
        const std::size_t first = kArity * pos + 1;
        if (first >= n)
            break;
        const std::size_t last = std::min(first + kArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c)
            if (before(heap[c], heap[best]))
                best = c;
        if (!before(heap[best], node))
            break;
        heap[pos] = heap[best];
        slots[heap[pos].slot].heapPos = static_cast<std::uint32_t>(pos);
        pos = best;
    }
    heap[pos] = node;
    slots[node.slot].heapPos = static_cast<std::uint32_t>(pos);
}

void
EventQueue::removeAt(std::size_t pos)
{
    const HeapNode last = heap.back();
    heap.pop_back();
    if (pos >= heap.size())
        return; // removed the tail itself
    heap[pos] = last;
    slots[last.slot].heapPos = static_cast<std::uint32_t>(pos);
    if (pos > 0 && before(heap[pos], heap[(pos - 1) / kArity]))
        siftUp(pos);
    else
        siftDown(pos);
}

EventId
EventQueue::schedule(SimTime when, Callback callback, const char *label)
{
    if (draining)
        throw std::logic_error(
            "EventQueue: a host timer scheduled a global event");
    if (when < currentTime)
        throw std::invalid_argument("EventQueue: scheduling in the past");
    const std::uint32_t s = acquireSlot(std::move(callback), label);
    heap.push_back(HeapNode{when, nextSeq++, s});
    siftUp(heap.size() - 1);
    return (static_cast<EventId>(slots[s].generation) << 32) | s;
}

EventId
EventQueue::scheduleAfter(SimTime delay, Callback callback,
                          const char *label)
{
    return schedule(currentTime + delay, std::move(callback), label);
}

void
EventQueue::cancel(EventId id)
{
    const std::uint32_t s = static_cast<std::uint32_t>(id);
    const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (gen == 0 || s >= slots.size())
        return; // never-issued id (including the 0 sentinel)
    Slot &slot = slots[s];
    if (slot.generation != gen || slot.heapPos == kNotInHeap)
        return; // already fired or cancelled
    removeAt(slot.heapPos);
    releaseSlot(s);
}

bool
EventQueue::drainHosts(SimTime when, std::uint64_t seq)
{
    bool fired = false;
    SimTime latest = currentTime;
    for (HostTimers *host : hosts) {
        if (!host->dueBefore(when, seq))
            continue;
        DrainScope scope(draining);
        do
            host->fireNext();
        while (host->dueBefore(when, seq));
        latest = std::max(latest, currentTime);
        fired = true;
    }
    currentTime = latest;
    return fired;
}

bool
EventQueue::runOne()
{
    if (heap.empty()) {
        // Host timers only: step the earliest one.
        HostTimers *earliest = nullptr;
        for (HostTimers *host : hosts) {
            if (!host->heap.empty() &&
                (earliest == nullptr ||
                 HostTimers::before(host->heap.front(),
                                    earliest->heap.front())))
                earliest = host;
        }
        if (earliest == nullptr)
            return false;
        DrainScope scope(draining);
        earliest->fireNext();
        return true;
    }
    const HeapNode top = heap.front();
    if (drainHosts(top.when, top.seq))
        return true;
    const HeapNode last = heap.back();
    heap.pop_back();
    if (!heap.empty()) {
        heap[0] = last;
        slots[last.slot].heapPos = 0;
        siftDown(0);
    }
    currentTime = top.when;
    // Move the callback out and retire the slot *before* invoking:
    // a handler cancelling its own (now stale) id must be a no-op,
    // and the handler may reallocate the slot table by scheduling.
    Callback callback = std::move(slots[top.slot].callback);
    releaseSlot(top.slot);
    ++executedCount;
    callback();
    return true;
}

SimTime
EventQueue::nextEventTime() const
{
    return heap.empty() ? kTimeNever : heap.front().when;
}

std::size_t
EventQueue::run(SimTime until)
{
    const std::size_t before = executedCount;
    while (!heap.empty() && heap.front().when <= until)
        runOne();
    drainHosts(until, std::numeric_limits<std::uint64_t>::max());
    if (currentTime < until && until != kTimeNever)
        currentTime = until;
    return executedCount - before;
}

std::size_t
EventQueue::runAll(std::size_t maxEvents)
{
    const std::size_t before = executedCount;
    while (executedCount - before < maxEvents && runOne()) {
    }
    return executedCount - before;
}

void
EventQueue::advance(SimTime delta)
{
    if (delta < 0)
        throw std::invalid_argument("EventQueue: negative advance");
    run(currentTime + delta);
}

} // namespace monatt::sim
