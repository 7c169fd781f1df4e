/**
 * @file
 * Property tests for the consistent-hash ring behind the sharded
 * control plane: balance within ±20% of fair share across a large key
 * population, minimal remapping (~1/N of keys) when one shard joins or
 * leaves, and deterministic insertion-order independence.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "controller/hash_ring.h"

namespace monatt::controller
{
namespace
{

std::vector<std::string>
vidPopulation(std::size_t count)
{
    std::vector<std::string> vids;
    vids.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        vids.push_back("vm-" + std::to_string(i));
    return vids;
}

HashRing
ringOf(int shards)
{
    HashRing ring;
    for (int k = 0; k < shards; ++k)
        ring.addNode("shard-" + std::to_string(k));
    return ring;
}

TEST(HashRingTest, EmptyRingOwnsNothing)
{
    HashRing ring;
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.owner("vm-1"), "");
    EXPECT_FALSE(ring.contains("shard-0"));
}

TEST(HashRingTest, SingleNodeOwnsEverything)
{
    HashRing ring;
    ring.addNode("only");
    for (const std::string &vid : vidPopulation(500))
        EXPECT_EQ(ring.owner(vid), "only");
}

TEST(HashRingTest, OwnershipIsDeterministic)
{
    const HashRing a = ringOf(8);
    // Same nodes, reverse insertion order: placement depends only on
    // the node set, never on construction history.
    HashRing b;
    for (int k = 7; k >= 0; --k)
        b.addNode("shard-" + std::to_string(k));

    for (const std::string &vid : vidPopulation(2000))
        EXPECT_EQ(a.owner(vid), b.owner(vid)) << vid;
}

TEST(HashRingTest, BalanceWithinTwentyPercentAcrossTenThousandVids)
{
    const int kShards = 8;
    const std::size_t kVids = 10000;
    const HashRing ring = ringOf(kShards);

    std::map<std::string, std::size_t> load;
    for (const std::string &vid : vidPopulation(kVids))
        ++load[ring.owner(vid)];

    ASSERT_EQ(load.size(), static_cast<std::size_t>(kShards))
        << "some shard owns no keys at all";

    const double fair = static_cast<double>(kVids) / kShards;
    for (const auto &[shard, count] : load) {
        EXPECT_GE(count, fair * 0.8)
            << shard << " underloaded: " << count << " of fair " << fair;
        EXPECT_LE(count, fair * 1.2)
            << shard << " overloaded: " << count << " of fair " << fair;
    }
}

TEST(HashRingTest, AddingOneShardRemapsAboutOneOverN)
{
    const std::size_t kVids = 10000;
    const std::vector<std::string> vids = vidPopulation(kVids);

    for (int n : {2, 4, 8}) {
        const HashRing before = ringOf(n);
        HashRing after = ringOf(n);
        after.addNode("shard-" + std::to_string(n));

        std::size_t moved = 0;
        for (const std::string &vid : vids) {
            if (before.owner(vid) != after.owner(vid)) {
                ++moved;
                // Keys only ever move TO the new shard, never between
                // the old ones — the defining consistent-hash property.
                EXPECT_EQ(after.owner(vid),
                          "shard-" + std::to_string(n));
            }
        }

        // Expected fraction is 1/(n+1); allow a 2x band for hash noise.
        const double expected =
            static_cast<double>(kVids) / static_cast<double>(n + 1);
        EXPECT_GE(moved, static_cast<std::size_t>(expected * 0.5))
            << "n=" << n;
        EXPECT_LE(moved, static_cast<std::size_t>(expected * 2.0))
            << "n=" << n;
    }
}

TEST(HashRingTest, RemovingOneShardRemapsOnlyItsKeys)
{
    const std::size_t kVids = 10000;
    const std::vector<std::string> vids = vidPopulation(kVids);

    const int n = 8;
    const HashRing before = ringOf(n);
    HashRing after;
    for (int k = 0; k < n; ++k) {
        if (k != 3)
            after.addNode("shard-" + std::to_string(k));
    }
    EXPECT_FALSE(after.contains("shard-3"));
    EXPECT_EQ(after.size(), static_cast<std::size_t>(n - 1));

    std::size_t moved = 0;
    for (const std::string &vid : vids) {
        const std::string &oldOwner = before.owner(vid);
        if (oldOwner == "shard-3") {
            ++moved;
            EXPECT_NE(after.owner(vid), "shard-3");
        } else {
            // Survivors keep every key they already owned.
            EXPECT_EQ(after.owner(vid), oldOwner) << vid;
        }
    }

    const double expected = static_cast<double>(kVids) / n;
    EXPECT_GE(moved, static_cast<std::size_t>(expected * 0.5));
    EXPECT_LE(moved, static_cast<std::size_t>(expected * 2.0));
}

TEST(HashRingTest, NodesAreSortedAndSized)
{
    const HashRing ring = ringOf(3);
    const std::vector<std::string> expect = {"shard-0", "shard-1",
                                             "shard-2"};
    EXPECT_EQ(ring.nodes(), expect);
    EXPECT_EQ(ring.size(), 3u);
}

} // namespace
} // namespace monatt::controller
