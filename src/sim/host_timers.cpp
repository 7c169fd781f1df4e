#include "sim/host_timers.h"

#include <stdexcept>

#include "sim/event_queue.h"

namespace monatt::sim
{

HostTimers::HostTimers(EventQueue &eq) : queue(eq)
{
    queue.hosts.push_back(this);
}

HostTimers::~HostTimers()
{
    std::erase(queue.hosts, this);
}

void
HostTimers::place(std::size_t pos, const Node &node)
{
    heap[pos] = node;
    position[node.id] = static_cast<std::uint32_t>(pos);
}

// The sifts copy `node` field by field: arm() has just stored it that
// way, and a whole-node copy reads those stores back with one wider
// load, which the CPU cannot forward from its store buffer and so
// stalls on.

void
HostTimers::siftUp(std::size_t pos, const Node &node)
{
    const Node key{node.when, node.seq, node.id};
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / 2;
        if (!before(key, heap[parent]))
            break;
        place(pos, heap[parent]);
        pos = parent;
    }
    place(pos, key);
}

void
HostTimers::siftDown(std::size_t pos, const Node &node)
{
    const Node key{node.when, node.seq, node.id};
    const std::size_t n = heap.size();
    for (;;) {
        std::size_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap[child + 1], heap[child]))
            ++child;
        if (!before(heap[child], key))
            break;
        place(pos, heap[child]);
        pos = child;
    }
    place(pos, key);
}

void
HostTimers::removeAt(std::size_t pos)
{
    position[heap[pos].id] = kDisarmed;
    const Node last = heap.back();
    heap.pop_back();
    if (pos >= heap.size())
        return; // removed the tail itself
    if (pos > 0 && before(last, heap[(pos - 1) / 2]))
        siftUp(pos, last);
    else
        siftDown(pos, last);
}

void
HostTimers::arm(TimerId id, SimTime when)
{
    if (when < queue.now())
        throw std::invalid_argument("HostTimers: arming in the past");
    if (id >= position.size())
        position.resize(id + 1, kDisarmed);
    disarm(id);
    const Node node{when, queue.nextSeq++, id};
    if (rootHeld) {
        // A handler's first arm takes over the fired timer's root
        // slot: one sift instead of a removal and a push.
        rootHeld = false;
        siftDown(0, node);
    } else {
        heap.emplace_back();
        siftUp(heap.size() - 1, node);
    }
}

void
HostTimers::disarm(TimerId id)
{
    if (armed(id))
        removeAt(position[id]);
}

/** Holds the fired timer's root slot for one handler and removes it
 * on the way out, return or throw, unless an arm() took it over. */
class HostTimers::FiredRoot
{
  public:
    explicit FiredRoot(HostTimers &timers) : timers(timers)
    {
        timers.rootHeld = true;
    }

    ~FiredRoot()
    {
        if (timers.rootHeld) {
            timers.rootHeld = false;
            timers.removeAt(0);
        }
    }

    FiredRoot(const FiredRoot &) = delete;
    FiredRoot &operator=(const FiredRoot &) = delete;

  private:
    HostTimers &timers;
};

void
HostTimers::fireNext()
{
    const Node top = heap.front();
    position[top.id] = kDisarmed;
    queue.currentTime = top.when;
    ++queue.executedCount;
    const FiredRoot held(*this);
    onTimer(top.id);
}

} // namespace monatt::sim
