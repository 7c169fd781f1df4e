/**
 * @file
 * The sharded, replicated control plane: N CloudController shards
 * behind one consistent-hash ring, each shard a replica group.
 *
 * The paper's Cloud Controller is a single Nova-style node; to scale
 * the control plane past one event-loop node the fabric splits it into
 * independent shards. A consistent-hash ring over VM ids (with virtual
 * nodes for balance) gives every VM exactly one owning shard; that
 * shard holds the VM's database record, its in-flight AttestContexts,
 * its pending launch, its dedup entries and its response log, and owns
 * its own write-ahead journal — so the PR-4 crash/recovery machinery
 * applies per shard unchanged. Shards never talk to each other:
 * customers route each request to the owning shard client-side, and
 * every shard allocates only vids the ring maps to itself, so
 * ownership is an invariant from birth.
 *
 * Every shard is a replica group of `replicasPerShard` nodes, a group
 * of one included (controller/replicated_log.h): the leader streams its
 * journal to the followers and commits (= releases externally visible
 * output) only once a majority holds the records durably; a
 * deterministic election promotes a follower when the leader dies. The
 * ring contains only the shards' *base* ids — replica membership
 * changes never remap VM ownership. Replica 0 keeps the base id and
 * boots as the round-1 leader.
 *
 * A 1-shard, 1-replica fabric reproduces the pre-sharding single
 * controller (same id, same seed, same message bytes and timings);
 * tests/controller/shard_conformance_test.cpp pins that equivalence
 * against a golden digest.
 */

#ifndef MONATT_CONTROLLER_CONTROLLER_FABRIC_H
#define MONATT_CONTROLLER_CONTROLLER_FABRIC_H

#include <memory>
#include <string>
#include <vector>

#include "controller/cloud_controller.h"
#include "controller/hash_ring.h"

namespace monatt::controller
{

/** N controller shards × R replicas plus the VM-ownership ring. */
class ControllerFabric
{
  public:
    /**
     * Construct `shardConfigs.size()` shards of `replicasPerShard`
     * replicas each. Each config must carry a distinct id (the shard's
     * base id); the fabric fills in the shard index, ring pointer and
     * replica-group membership before constructing each node. `seeds`
     * supplies the per-shard RNG seed, parallel to `shardConfigs`;
     * replica r derives its seed from the shard seed.
     */
    ControllerFabric(sim::EventQueue &eq, net::Network &network,
                     net::KeyDirectory &directory,
                     std::vector<CloudControllerConfig> shardConfigs,
                     const std::vector<std::uint64_t> &seeds,
                     int replicasPerShard = 1);

    std::size_t numShards() const
    {
        return nodes.size() / replicas_;
    }
    std::size_t numNodes() const { return nodes.size(); }

    /** Shard primary (replica 0, base id) by shard index. */
    CloudController &shard(std::size_t index)
    {
        return *nodes.at(index * replicas_);
    }
    const CloudController &shard(std::size_t index) const
    {
        return *nodes.at(index * replicas_);
    }

    /** Any replica node, in shard-major order (shard 0's replicas,
     *  then shard 1's, ...). */
    CloudController &node(std::size_t index)
    {
        return *nodes.at(index);
    }
    const CloudController &node(std::size_t index) const
    {
        return *nodes.at(index);
    }

    /** Node (any replica of any shard) by id; nullptr when unknown. */
    CloudController *shardById(const std::string &id);

    /**
     * The current leader of a shard's replica group: the up node in
     * role Leader, falling back to the primary when the group is
     * mid-election (callers inspecting state between elections).
     */
    CloudController &leaderOf(std::size_t shardIndex);

    /** The ownership ring (customers route requests with it).
     *  Contains only base shard ids — never replica ids. */
    const HashRing &ring() const { return ownership; }

    /** Current leader of the group owning a VM id. */
    CloudController &ownerOf(const std::string &vid);

    /** Replica-group member ids of one shard, replica-index order. */
    std::vector<std::string> groupIds(std::size_t shardIndex) const;

    // --- Provisioning fan-out (trusted operator path) -----------------

    /** Register a flavor on every node. */
    void addFlavor(const std::string &name, std::uint32_t vcpus,
                   std::uint64_t ramMb, std::uint64_t diskGb);

    /** Add a server inventory record to every node's database. */
    void addServerRecord(const ServerRecord &record);

    /** Map a server to its cluster attestor on every node. */
    void assignAttestationCluster(const std::string &serverId,
                                  const std::string &attestorId);

    // --- Whole-plane operations ----------------------------------------

    /** Counters summed across all nodes. */
    ControllerStats aggregateStats() const;

  private:
    HashRing ownership; //!< Declared first: nodes hold a pointer.
    std::size_t replicas_ = 1;
    std::vector<std::unique_ptr<CloudController>> nodes;
};

} // namespace monatt::controller

#endif // MONATT_CONTROLLER_CONTROLLER_FABRIC_H
