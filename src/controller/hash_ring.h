/**
 * @file
 * Consistent-hash ring used by the sharded control plane.
 *
 * The ControllerFabric places every controller shard on a ring of
 * 64-bit points (many virtual nodes per shard for balance) and routes
 * each VM id to the shard owning the first point at or after the key's
 * hash, wrapping around. SHA-256 — already the repo's single hash —
 * supplies the point distribution, so placement is deterministic
 * across platforms and build modes: a fixed shard set always yields
 * the same ownership map. Adding or removing one shard remaps only
 * ~1/N of the key space, which tests/controller/hash_ring_test.cpp
 * pins as a property test.
 */

#ifndef MONATT_CONTROLLER_HASH_RING_H
#define MONATT_CONTROLLER_HASH_RING_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace monatt::controller
{

/** Deterministic consistent-hash ring with virtual nodes. */
class HashRing
{
  public:
    /** Default virtual-node count per shard; plenty for ±20% balance. */
    static constexpr int kDefaultVirtualNodes = 128;

    /** Hash an arbitrary key to its 64-bit ring position. */
    static std::uint64_t hashKey(const std::string &key);

    /** Place a node on the ring under `virtualNodes` points. */
    void addNode(const std::string &nodeId,
                 int virtualNodes = kDefaultVirtualNodes);

    /** True if the node currently sits on the ring. */
    bool contains(const std::string &nodeId) const;

    /** Owning node for a key; empty string on an empty ring. */
    const std::string &owner(const std::string &key) const;

    /** Distinct node ids on the ring, sorted. */
    std::vector<std::string> nodes() const;

    /** Number of distinct nodes. */
    std::size_t size() const { return nodeIds.size(); }

    bool empty() const { return points.empty(); }

  private:
    std::map<std::uint64_t, std::string> points;
    std::set<std::string> nodeIds;
};

} // namespace monatt::controller

#endif // MONATT_CONTROLLER_HASH_RING_H
