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

void
HostTimers::siftUp(std::size_t pos)
{
    const Node node = heap[pos];
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / 2;
        if (!before(node, heap[parent]))
            break;
        place(pos, heap[parent]);
        pos = parent;
    }
    place(pos, node);
}

void
HostTimers::siftDown(std::size_t pos)
{
    const Node node = heap[pos];
    const std::size_t n = heap.size();
    for (;;) {
        std::size_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap[child + 1], heap[child]))
            ++child;
        if (!before(heap[child], node))
            break;
        place(pos, heap[child]);
        pos = child;
    }
    place(pos, node);
}

void
HostTimers::removeAt(std::size_t pos)
{
    position[heap[pos].id] = kDisarmed;
    const Node last = heap.back();
    heap.pop_back();
    if (pos >= heap.size())
        return; // removed the tail itself
    place(pos, last);
    if (pos > 0 && before(last, heap[(pos - 1) / 2]))
        siftUp(pos);
    else
        siftDown(pos);
}

void
HostTimers::arm(TimerId id, SimTime when)
{
    if (when < queue.now())
        throw std::invalid_argument("HostTimers: arming in the past");
    if (id >= position.size())
        position.resize(id + 1, kDisarmed);
    disarm(id);
    heap.push_back(Node{when, queue.nextSeq++, id});
    siftUp(heap.size() - 1);
}

void
HostTimers::disarm(TimerId id)
{
    if (armed(id))
        removeAt(position[id]);
}

void
HostTimers::fireNext()
{
    const Node top = heap.front();
    removeAt(0);
    queue.currentTime = top.when;
    ++queue.executedCount;
    onTimer(top.id);
}

} // namespace monatt::sim
