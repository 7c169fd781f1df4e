#include "controller/hash_ring.h"

#include "crypto/sha256.h"

namespace monatt::controller
{

std::uint64_t
HashRing::hashKey(const std::string &key)
{
    Bytes data(key.begin(), key.end());
    const Bytes digest = crypto::Sha256::hash(data);
    std::uint64_t h = 0;
    for (int i = 0; i < 8; ++i)
        h = (h << 8) | digest[static_cast<std::size_t>(i)];
    return h;
}

void
HashRing::addNode(const std::string &nodeId, int virtualNodes)
{
    if (!nodeIds.insert(nodeId).second)
        return;
    for (int i = 0; i < virtualNodes; ++i) {
        std::uint64_t point =
            hashKey(nodeId + "#" + std::to_string(i));
        // Ties across nodes are astronomically unlikely but must not
        // silently change ownership of an existing point; probe to the
        // next free slot so insertion order cannot matter.
        while (points.count(point) != 0)
            ++point;
        points.emplace(point, nodeId);
    }
}

bool
HashRing::contains(const std::string &nodeId) const
{
    return nodeIds.count(nodeId) != 0;
}

const std::string &
HashRing::owner(const std::string &key) const
{
    static const std::string kEmpty;
    if (points.empty())
        return kEmpty;
    auto it = points.lower_bound(hashKey(key));
    if (it == points.end())
        it = points.begin();
    return it->second;
}

std::vector<std::string>
HashRing::nodes() const
{
    return {nodeIds.begin(), nodeIds.end()};
}

} // namespace monatt::controller
