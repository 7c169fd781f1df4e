/**
 * @file
 * Bounded first-in-first-out map: the one container behind every
 * receive-side dedup cache (controller relay cache, Attestation Server
 * report and cert-verification caches, pCA issued cache, server
 * response cache).
 *
 * The first insert of a key wins and keeps its place; the oldest entry
 * is evicted once the map is over capacity; iteration visits entries
 * in insertion order. Snapshots therefore replay in FIFO order and
 * re-inserting them rebuilds the same eviction order.
 */

#ifndef MONATT_COMMON_FIFO_MAP_H
#define MONATT_COMMON_FIFO_MAP_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>

namespace monatt
{

/** Bounded insertion-ordered map with FIFO eviction. */
template <typename K, typename V>
class FifoMap
{
  public:
    using value_type = std::pair<K, V>;
    using const_iterator = typename std::deque<value_type>::const_iterator;

    /** A zero capacity clamps to 1. */
    explicit FifoMap(std::size_t capacity)
        : cap(std::max<std::size_t>(capacity, 1))
    {
    }

    /**
     * Insert `key` unless present; evicts the oldest entry once over
     * capacity. A duplicate keeps its first value and position.
     *
     * @return The stored value when the key was new, else nullptr.
     */
    const V *insert(const K &key, V value)
    {
        if (!index.emplace(key, firstSeq + entries.size()).second)
            return nullptr;
        entries.emplace_back(key, std::move(value));
        if (entries.size() > cap) {
            index.erase(entries.front().first);
            entries.pop_front();
            ++firstSeq;
        }
        return &entries.back().second;
    }

    /** The value stored for `key`; nullptr when absent. */
    const V *find(const K &key) const
    {
        const auto it = index.find(key);
        return it == index.end() ? nullptr
                                 : &entries[it->second - firstSeq].second;
    }

    std::size_t size() const { return entries.size(); }

    void clear()
    {
        index.clear();
        entries.clear();
    }

    /** Entries oldest first. */
    const_iterator begin() const { return entries.begin(); }
    const_iterator end() const { return entries.end(); }

  private:
    std::size_t cap;
    std::map<K, std::uint64_t> index; //!< Key -> insertion sequence.
    std::deque<value_type> entries;   //!< Oldest first.
    std::uint64_t firstSeq = 0;       //!< Sequence of entries.front().
};

} // namespace monatt

#endif // MONATT_COMMON_FIFO_MAP_H
