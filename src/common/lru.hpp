#pragma once
// Sharded LRU cache: a fixed-capacity key -> shared_ptr<Value> map with
// least-recently-used eviction, split into independently locked shards so
// concurrent lookups from a query fan-out do not serialize on one mutex.
//
// Values are handed out as shared_ptr, so an evicted entry stays alive for
// readers that already hold it. The cache never blocks on value
// construction: callers look up, build a missing value outside any lock,
// and insert -- a concurrent duplicate build is benign (last insert wins).

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace dlap {

struct LruStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t size = 0;  ///< entries currently cached (across shards)
};

template <class Key, class Value, class Hash = std::hash<Key>>
class ShardedLru {
 public:
  /// `capacity` 0 disables the cache (every find misses, inserts are
  /// dropped). Capacity splits across shards as ceil(capacity/shards);
  /// the shard count shrinks for small capacities (at least 8 entries
  /// per shard) so a tiny cache is one exactly-sized LRU instead of many
  /// one-entry shards thrashing each other. Total held entries are
  /// within [capacity, capacity + shards).
  explicit ShardedLru(std::size_t capacity, std::size_t shards = 8) {
    capacity_ = capacity;
    const std::size_t usable = std::max<std::size_t>(1, capacity);
    shards_.resize(std::clamp<std::size_t>(usable / 8, 1,
                                           std::max<std::size_t>(1, shards)));
    per_shard_ = (usable + shards_.size() - 1) / shards_.size();
    for (auto& s : shards_) s = std::make_unique<Shard>();
  }

  /// The cached value (promoted to most recently used) or nullptr.
  [[nodiscard]] std::shared_ptr<Value> find(const Key& key) {
    if (capacity_ == 0) return nullptr;
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.map.find(key);
    if (it == s.map.end()) {
      ++s.misses;
      return nullptr;
    }
    ++s.hits;
    s.order.splice(s.order.begin(), s.order, it->second);
    return it->second->second;
  }

  /// Inserts (or replaces) the entry as most recently used, evicting the
  /// shard's least recently used entry when over capacity.
  void insert(const Key& key, std::shared_ptr<Value> value) {
    if (capacity_ == 0) return;
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.map.find(key);
    if (it != s.map.end()) {
      it->second->second = std::move(value);
      s.order.splice(s.order.begin(), s.order, it->second);
      return;
    }
    s.order.emplace_front(key, std::move(value));
    s.map.emplace(key, s.order.begin());
    if (s.map.size() > per_shard_) {
      s.map.erase(s.order.back().first);
      s.order.pop_back();
      ++s.evictions;
    }
  }

  /// Calls fn(value) for every cached entry, one shard at a time under
  /// that shard's lock; `fn` must not call back into the cache. Recency
  /// and the hit/miss counters are untouched.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mutex);
      for (const auto& [key, value] : s->order) fn(*value);
    }
  }

  void clear() {
    for (auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mutex);
      s->map.clear();
      s->order.clear();
    }
  }

  [[nodiscard]] LruStats stats() const {
    LruStats out;
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mutex);
      out.hits += s->hits;
      out.misses += s->misses;
      out.evictions += s->evictions;
      out.size += s->map.size();
    }
    return out;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::list<std::pair<Key, std::shared_ptr<Value>>> order;  // MRU first
    std::unordered_map<Key,
                       typename std::list<
                           std::pair<Key, std::shared_ptr<Value>>>::iterator,
                       Hash>
        map;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard(const Key& key) {
    // Spread the hash's low bits (unordered_map uses them too) before
    // picking a shard, so shard choice and bucket choice decorrelate.
    const std::size_t h = Hash{}(key);
    return *shards_[(h ^ (h >> 16)) % shards_.size()];
  }

  std::size_t capacity_;
  std::size_t per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dlap
