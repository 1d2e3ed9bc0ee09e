#include "coll/schedule_cache.hpp"

#include "bsbutil/error.hpp"

namespace bsb::coll {

ScheduleCache::ScheduleCache(std::size_t capacity) : capacity_(capacity) {
  BSB_REQUIRE(capacity >= 1, "ScheduleCache: capacity must be positive");
}

std::shared_ptr<const Plan> ScheduleCache::get_or_build(const PlanKey& key,
                                                        const Builder& build) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = map_.find(key); it != map_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.pos);  // refresh recency
    return it->second.plan;
  }
  ++misses_;
  auto plan = std::make_shared<const Plan>(build());
  BSB_REQUIRE(plan->nranks == key.nranks && plan->nbytes == key.nbytes,
              "ScheduleCache: builder produced a plan for a different key");
  lru_.push_front(key);
  map_.emplace(key, Entry{plan, lru_.begin()});
  evict_to_capacity_locked();
  return plan;
}

ScheduleCache::Stats ScheduleCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.size = map_.size();
  s.capacity = capacity_;
  return s;
}

void ScheduleCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  hits_ = misses_ = evictions_ = 0;
}

void ScheduleCache::set_capacity(std::size_t capacity) {
  BSB_REQUIRE(capacity >= 1, "ScheduleCache: capacity must be positive");
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  evict_to_capacity_locked();
}

void ScheduleCache::evict_to_capacity_locked() {
  while (map_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
}

ScheduleCache& process_schedule_cache() {
  static ScheduleCache cache;
  return cache;
}

}  // namespace bsb::coll
