#include "net/network.h"

#include <algorithm>

#include "common/logging.h"

namespace monatt::net
{

void
Network::registerNode(const NodeId &id, Handler handler)
{
    nodes[id] = std::move(handler);
}

void
Network::unregisterNode(const NodeId &id)
{
    nodes.erase(id);
}

void
Network::setLink(const NodeId &a, const NodeId &b, LinkParams params)
{
    const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
    links[key] = params;
}

const LinkParams &
Network::linkBetween(const NodeId &a, const NodeId &b) const
{
    const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
    const auto it = links.find(key);
    return it == links.end() ? defaultLink : it->second;
}

SimTime
Network::transferTime(const NodeId &a, const NodeId &b,
                      std::size_t bytes) const
{
    const LinkParams &link = linkBetween(a, b);
    // bits / (Mbit/s) = microseconds.
    const double serialization =
        static_cast<double>(bytes) * 8.0 / link.megabitsPerSecond;
    return link.latency + static_cast<SimTime>(serialization);
}

void
Network::send(Envelope env)
{
    ++counters.sent;
    counters.bytesSent += env.wireSize();

    if (adversary) {
        const Bytes original = env.encode();
        std::optional<Envelope> verdict = adversary(env);
        if (!verdict) {
            ++counters.droppedByAdversary;
            MONATT_LOG(Debug, "net") << "adversary dropped " << env.channel
                                     << " " << env.src << "->" << env.dst;
            return;
        }
        if (verdict->encode() != original)
            ++counters.modifiedByAdversary;
        env = std::move(*verdict);
    }

    SimTime extraDelay = 0;
    if (faults) {
        const sim::FaultDecision d = faults->decide(
            env.src, env.dst, env.channel, env.seq, events.now());
        if (d.partitioned) {
            ++counters.partitioned;
            MONATT_LOG(Debug, "net")
                << "partition ate " << env.channel << " " << env.src
                << "->" << env.dst;
            return;
        }
        if (d.drop) {
            ++counters.droppedByFault;
            MONATT_LOG(Debug, "net")
                << "fault dropped " << env.channel << " " << env.src
                << "->" << env.dst;
            return;
        }
        if (d.extraDelay > 0) {
            ++counters.delayedByFault;
            extraDelay = d.extraDelay;
        }
        for (int i = 0; i < d.duplicates; ++i) {
            ++counters.duplicated;
            deliverCopy(env, extraDelay);
        }
    }
    deliver(std::move(env), extraDelay);
}

void
Network::inject(Envelope env)
{
    ++counters.injected;
    deliver(std::move(env));
}

Envelope *
Network::acquireSlot()
{
    if (freeEnvelopes.empty()) {
        ++counters.envelopeAllocs;
        envelopeSlab.push_back(std::make_unique<Envelope>());
        return envelopeSlab.back().get();
    }
    ++counters.envelopeReuses;
    Envelope *slot = freeEnvelopes.back();
    freeEnvelopes.pop_back();
    return slot;
}

void
Network::releaseSlot(Envelope *slot)
{
    slot->payload = Bytes();
    slot->src.clear();
    slot->dst.clear();
    slot->channel.clear();
    slot->seq = 0;
    slot->bulkBytes = 0;
    freeEnvelopes.push_back(slot);
}

void
Network::scheduleDelivery(Envelope *slot, SimTime extraDelay)
{
    SimTime delay =
        transferTime(slot->src, slot->dst, slot->wireSize()) + extraDelay;
    // A link carries one stream per direction, as TCP under the
    // paper's SSL sessions does: a short record sent right after a
    // long one must not arrive first, or the receiving channel drops
    // the long one as reordered. Only a fault delay may reorder.
    if (extraDelay == 0) {
        SimTime &last = lastDelivery[{slot->src, slot->dst}];
        delay = std::max(delay, last - events.now());
        last = events.now() + delay;
    }
    events.scheduleAfter(delay, [this, slot] { dispatch(slot); },
                         "net.deliver");
}

void
Network::dispatch(Envelope *slot)
{
    const auto it = nodes.find(slot->dst);
    if (it == nodes.end()) {
        ++counters.undeliverable;
        MONATT_LOG(Warn, "net") << "undeliverable datagram to "
                                << slot->dst;
    } else {
        ++counters.delivered;
        it->second(*slot);
    }
    releaseSlot(slot);
}

void
Network::deliver(Envelope env, SimTime extraDelay)
{
    Envelope *slot = acquireSlot();
    *slot = std::move(env);
    scheduleDelivery(slot, extraDelay);
}

void
Network::deliverCopy(const Envelope &env, SimTime extraDelay)
{
    // Duplicate deliveries (fault plan) copy field-wise into the
    // slot's retained buffers instead of allocating a fresh Envelope.
    Envelope *slot = acquireSlot();
    slot->src = env.src;
    slot->dst = env.dst;
    slot->channel = env.channel;
    slot->seq = env.seq;
    slot->bulkBytes = env.bulkBytes;
    slot->payload.assign(env.payload.begin(), env.payload.end());
    scheduleDelivery(slot, extraDelay);
}

} // namespace monatt::net
