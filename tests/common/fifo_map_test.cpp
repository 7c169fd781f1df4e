/**
 * @file
 * FifoMap, the bounded FIFO behind every dedup cache: iteration follows
 * insertion order (not key order), the oldest entries leave first at
 * capacity (here the server response cache's bound of 64), and a
 * cleared map starts over cleanly. The cert-verification cache tests
 * in tests/attestation cover duplicates, clear and the zero clamp.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/fifo_map.h"

namespace monatt
{
namespace
{

std::vector<std::uint64_t>
keysOf(const FifoMap<std::uint64_t, std::string> &map)
{
    std::vector<std::uint64_t> keys;
    for (const auto &[key, value] : map)
        keys.push_back(key);
    return keys;
}

TEST(FifoMapTest, IteratesInInsertionOrder)
{
    FifoMap<std::uint64_t, std::string> map(8);
    map.insert(30, "c");
    map.insert(10, "a");
    map.insert(20, "b");
    EXPECT_EQ(keysOf(map), (std::vector<std::uint64_t>{30, 10, 20}));
    ASSERT_NE(map.find(10), nullptr);
    EXPECT_EQ(*map.find(10), "a");
}

TEST(FifoMapTest, EvictsOldestFirstAtCapacity)
{
    FifoMap<std::uint64_t, std::string> map(64);
    for (std::uint64_t id = 0; id < 100; ++id)
        ASSERT_NE(map.insert(id, std::to_string(id)), nullptr);

    EXPECT_EQ(map.size(), 64u);
    std::vector<std::uint64_t> expected;
    for (std::uint64_t id = 36; id < 100; ++id)
        expected.push_back(id);
    EXPECT_EQ(keysOf(map), expected);
    EXPECT_EQ(map.find(35), nullptr);
    for (std::uint64_t id = 36; id < 100; ++id) {
        ASSERT_NE(map.find(id), nullptr) << id;
        EXPECT_EQ(*map.find(id), std::to_string(id));
    }
}

TEST(FifoMapTest, ClearedMapStartsOver)
{
    FifoMap<std::uint64_t, std::string> map(2);
    map.insert(1, "one");
    map.insert(2, "two");
    map.insert(3, "three");
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(3), nullptr);

    map.insert(3, "again");
    map.insert(4, "four");
    map.insert(5, "five");
    EXPECT_EQ(keysOf(map), (std::vector<std::uint64_t>{4, 5}));
    ASSERT_NE(map.find(5), nullptr);
    EXPECT_EQ(*map.find(5), "five");
}

} // namespace
} // namespace monatt
