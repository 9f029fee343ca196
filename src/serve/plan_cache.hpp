/// \file plan_cache.hpp
/// Content-addressed cache of compiled ExecutablePlans (docs/serving.md).
///
/// Tenants of the plan server submit plans by value (POST /plan); the
/// cache keys each one by ExecutablePlan::content_hash_hex() — the
/// FNV-1a digest of the schema version and the topology/exec
/// fingerprints — so re-submitting an identical plan is a hit that
/// costs one parse and no admission budget, while any semantic change
/// (different PASS, protocol selection, channel bounds...) produces a
/// new key. Capacity is bounded; insertion beyond it evicts the least
/// recently used entry (find() and a deduplicating insert() both count
/// as use).
///
/// The cache is deliberately single-threaded: it lives on the plan
/// server's poll thread, which serializes every request (the same
/// discipline a JobInstance's colocated runs follow — TSan enforces it
/// in the soak tests).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "core/plan.hpp"

namespace spi::serve {

/// One cached plan plus the facts admission control needs about it.
struct CachedPlan {
  std::string key;  ///< content_hash_hex() of the plan
  std::shared_ptr<const core::ExecutablePlan> plan;
  /// Equation-2 resident channel memory of one runtime instance of this
  /// plan (JobInstance::resident_channel_bytes) — reserved against the
  /// server's memory budget while the entry is cached.
  std::int64_t resident_bytes = 0;
};

class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 64);

  /// Deduplicating insert: an already-cached content hash is a hit (the
  /// submitted copy is dropped, the entry is freshened); otherwise the
  /// plan is adopted and, at capacity, the least recently used entry is
  /// evicted. Returns the resident entry either way — callers holding
  /// the shared_ptr keep a plan alive across its eviction.
  std::shared_ptr<const CachedPlan> insert(core::ExecutablePlan plan);

  /// The entry with this content hash, freshened to most recently used;
  /// nullptr on miss (the miss counter only counts find() misses, not
  /// inserts of new content).
  [[nodiscard]] std::shared_ptr<const CachedPlan> find(const std::string& key);

  /// Resident bytes released by evictions since the last call (the
  /// server returns them to the admission budget).
  [[nodiscard]] std::int64_t take_evicted_bytes();

  /// Whether this content hash is cached — no counter or LRU effect
  /// (the admission path peeks before deciding to reserve budget).
  [[nodiscard]] bool contains(const std::string& key) const {
    return entries_.find(key) != entries_.end();
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::int64_t hits() const { return hits_; }
  [[nodiscard]] std::int64_t misses() const { return misses_; }
  [[nodiscard]] std::int64_t evictions() const { return evictions_; }
  /// Sum of resident_bytes over the currently cached entries.
  [[nodiscard]] std::int64_t resident_bytes() const { return resident_bytes_; }

 private:
  void touch(const std::string& key);

  std::size_t capacity_;
  /// Keys in recency order, most recent first; entries_ maps into it.
  std::list<std::string> lru_;
  std::map<std::string, std::pair<std::shared_ptr<const CachedPlan>, std::list<std::string>::iterator>>
      entries_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t resident_bytes_ = 0;
  std::int64_t evicted_bytes_ = 0;
};

}  // namespace spi::serve
