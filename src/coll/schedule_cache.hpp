// Process-wide schedule cache: memoizes (P, nbytes, algorithm) → shared
// root-canonical coll::Plan so the hot serving path never recomputes chunk
// layouts or ring plans. LRU-bounded, thread-safe, with hit/miss/eviction
// counters (the concurrent-serving bench asserts a steady-state hit rate).
//
// Plans are immutable and handed out as shared_ptr<const Plan>: an entry
// may be evicted while ranks still execute it — their shared_ptr keeps the
// steps alive, the cache merely forgets the memoization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "coll/plan.hpp"

namespace bsb::coll {

/// Cache key. `algorithm` is a caller-defined id namespace; core/icoll.hpp
/// defines the ids for the bcast/allgather families.
struct PlanKey {
  int nranks = 0;
  std::uint64_t nbytes = 0;
  int algorithm = 0;
  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const noexcept {
    // splitmix64-style mix over the packed fields.
    std::uint64_t h = static_cast<std::uint64_t>(k.nranks);
    h = h * 0x9e3779b97f4a7c15ULL + k.nbytes;
    h = h * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(k.algorithm);
    h ^= h >> 30; h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27; h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return static_cast<std::size_t>(h);
  }
};

class ScheduleCache {
 public:
  /// At most `capacity` plans are retained (least recently used evicted).
  explicit ScheduleCache(std::size_t capacity = kDefaultCapacity);

  using Builder = std::function<Plan()>;

  /// The cached plan for `key`, building (and inserting) it via `build` on
  /// a miss. The build runs under the cache lock — builders only record
  /// schedules, they never communicate, so this cannot deadlock and it
  /// deduplicates concurrent misses for the same key (every rank of a
  /// World asks for the same plan at once).
  std::shared_ptr<const Plan> get_or_build(const PlanKey& key,
                                           const Builder& build);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
    double hit_rate() const noexcept {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };
  Stats stats() const;

  /// Drop all entries and reset the counters (tests / bench reruns).
  void clear();

  /// Resize the LRU bound, evicting as needed (counts as evictions).
  void set_capacity(std::size_t capacity);

  static constexpr std::size_t kDefaultCapacity = 512;

 private:
  void evict_to_capacity_locked();

  mutable std::mutex mu_;
  std::size_t capacity_;
  // lru_ front = most recently used; map entries point at their lru slot.
  std::list<PlanKey> lru_;
  struct Entry {
    std::shared_ptr<const Plan> plan;
    std::list<PlanKey>::iterator pos;
  };
  std::unordered_map<PlanKey, Entry, PlanKeyHash> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// The process-wide cache used by core::ibcast / core::iallgather.
ScheduleCache& process_schedule_cache();

}  // namespace bsb::coll
