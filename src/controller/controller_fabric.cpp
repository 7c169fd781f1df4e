#include "controller/controller_fabric.h"

#include <stdexcept>

namespace monatt::controller
{

namespace
{
/** Golden-ratio stream splitter for per-replica RNG seeds. */
constexpr std::uint64_t kReplicaSeedStride = 0x9E3779B97F4A7C15ULL;
} // namespace

ControllerFabric::ControllerFabric(
    sim::EventQueue &eq, net::Network &network,
    net::KeyDirectory &directory,
    std::vector<CloudControllerConfig> shardConfigs,
    const std::vector<std::uint64_t> &seeds, int replicasPerShard)
{
    if (shardConfigs.empty())
        throw std::invalid_argument("fabric needs at least one shard");
    if (shardConfigs.size() != seeds.size())
        throw std::invalid_argument("one seed per shard required");
    if (replicasPerShard < 1)
        throw std::invalid_argument("replicasPerShard must be >= 1");
    replicas_ = static_cast<std::size_t>(replicasPerShard);

    // The full ring must exist before any shard runs: vid allocation
    // consults it from the first launch. Only base ids go on the ring,
    // so replica membership never influences VM ownership.
    for (const CloudControllerConfig &cfg : shardConfigs)
        ownership.addNode(cfg.id);

    nodes.reserve(shardConfigs.size() * replicas_);
    for (std::size_t k = 0; k < shardConfigs.size(); ++k) {
        std::vector<std::string> group;
        group.reserve(replicas_);
        for (std::size_t r = 0; r < replicas_; ++r)
            group.push_back(replicaId(shardConfigs[k].id,
                                      static_cast<int>(r)));
        for (std::size_t r = 0; r < replicas_; ++r) {
            CloudControllerConfig cfg = shardConfigs[k];
            cfg.id = group[r];
            cfg.shardIndex = static_cast<int>(k);
            cfg.ring = &ownership;
            cfg.groupIds = group;
            cfg.replicaIndex = static_cast<int>(r);
            const std::uint64_t seed =
                seeds[k] ^ (static_cast<std::uint64_t>(r) *
                            kReplicaSeedStride);
            nodes.push_back(std::make_unique<CloudController>(
                eq, network, directory, std::move(cfg), seed));
        }
    }
}

CloudController *
ControllerFabric::shardById(const std::string &id)
{
    for (auto &node : nodes) {
        if (node->id() == id)
            return node.get();
    }
    return nullptr;
}

CloudController &
ControllerFabric::leaderOf(std::size_t shardIndex)
{
    const std::size_t base = shardIndex * replicas_;
    for (std::size_t r = 0; r < replicas_; ++r) {
        CloudController &node = *nodes.at(base + r);
        if (node.isUp() && node.role() == ReplicaRole::Leader)
            return node;
    }
    return *nodes.at(base); // mid-election: fall back to the primary
}

CloudController &
ControllerFabric::ownerOf(const std::string &vid)
{
    const std::string base = ownership.owner(vid);
    for (std::size_t k = 0; k < numShards(); ++k) {
        if (shard(k).groupId() == base)
            return leaderOf(k);
    }
    throw std::logic_error("ring names a node that is not a shard");
}

std::vector<std::string>
ControllerFabric::groupIds(std::size_t shardIndex) const
{
    std::vector<std::string> ids;
    ids.reserve(replicas_);
    const std::size_t base = shardIndex * replicas_;
    for (std::size_t r = 0; r < replicas_; ++r)
        ids.push_back(nodes.at(base + r)->id());
    return ids;
}

void
ControllerFabric::addFlavor(const std::string &name, std::uint32_t vcpus,
                            std::uint64_t ramMb, std::uint64_t diskGb)
{
    for (auto &node : nodes)
        node->addFlavor(name, vcpus, ramMb, diskGb);
}

void
ControllerFabric::addServerRecord(const ServerRecord &record)
{
    for (auto &node : nodes) {
        ServerRecord copy = record;
        node->database().addServer(std::move(copy));
    }
}

void
ControllerFabric::assignAttestationCluster(const std::string &serverId,
                                           const std::string &attestorId)
{
    for (auto &node : nodes)
        node->assignAttestationCluster(serverId, attestorId);
}

ControllerStats
ControllerFabric::aggregateStats() const
{
    ControllerStats total;
    for (const auto &node : nodes)
        total += node->stats();
    return total;
}

} // namespace monatt::controller
