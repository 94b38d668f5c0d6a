#include "persist/plan_cache.hpp"

#include <limits>

namespace blocktri {

template <class T>
bool PlanCache<T>::tombstoned_locked(const PlanCacheKey& key) {
  auto ts = tombstones_.find(key);
  if (ts == tombstones_.end()) return false;
  if (counters_.inserts >= ts->second) {
    tombstones_.erase(ts);  // TTL lapsed — the key may be cached again
    return false;
  }
  return true;
}

template <class T>
std::shared_ptr<const PlanArtifact<T>> PlanCache<T>::find(
    const PlanCacheKey& key) {
  bool trusted = false;
  return lookup(key, &trusted);
}

template <class T>
std::shared_ptr<const PlanArtifact<T>> PlanCache<T>::lookup(
    const PlanCacheKey& key, bool* trusted) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tombstoned_locked(key)) {
    ++counters_.misses;
    return nullptr;
  }
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++counters_.misses;
    return nullptr;
  }
  ++counters_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to most recently used
  *trusted = it->second->trusted;
  return it->second->art;
}

template <class T>
void PlanCache<T>::mark_trusted(const PlanCacheKey& key,
                                const PlanArtifact<T>* art) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end() && it->second->art.get() == art)
    it->second->trusted = true;
}

template <class T>
std::shared_ptr<const PlanArtifact<T>> PlanCache<T>::insert(
    std::shared_ptr<const PlanArtifact<T>> art, bool overwrite) {
  // A caller-supplied artifact is validated on its first hit.
  return insert_entry(std::move(art), overwrite, /*trusted=*/false);
}

template <class T>
std::shared_ptr<const PlanArtifact<T>> PlanCache<T>::insert_entry(
    std::shared_ptr<const PlanArtifact<T>> art, bool overwrite,
    bool trusted) {
  BLOCKTRI_CHECK(art != nullptr);
  const PlanCacheKey key{art->structure, art->options};
  const std::size_t bytes = artifact_bytes(*art);

  std::lock_guard<std::mutex> lock(mu_);
  if (tombstoned_locked(key)) {
    // The key is serving a quarantine sentence: hand the artifact back
    // uncached (it is still perfectly usable by this caller) rather than
    // re-admitting a pattern whose cached form keeps failing.
    return art;
  }
  if (auto it = index_.find(key); it != index_.end()) {
    if (!overwrite) {
      // First writer wins: identical (structure, options) builds produce
      // identical artifacts, so keep the one concurrent readers already
      // share.
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->art;
    }
    // The caller vouches the cached entry is bad (it failed the warm path);
    // drop it so the replacement below becomes authoritative. Readers still
    // holding the old shared_ptr are unaffected.
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  if (bytes > limits_.max_bytes || limits_.max_entries == 0) {
    // Too big for the cache no matter what we evict — hand it back uncached.
    return art;
  }
  evict_until_fits_locked(bytes);
  lru_.push_front(Entry{key, art, bytes, trusted});
  index_[key] = lru_.begin();
  bytes_ += bytes;
  ++counters_.inserts;
  return art;
}

template <class T>
void PlanCache<T>::evict_until_fits_locked(std::size_t incoming_bytes) {
  while (!lru_.empty() && (bytes_ + incoming_bytes > limits_.max_bytes ||
                           lru_.size() + 1 > limits_.max_entries)) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++counters_.evictions;
  }
}

template <class T>
void PlanCache<T>::report_hit_failure(const PlanCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tombstoned_locked(key)) return;  // already quarantined
  const int failures = ++failures_[key];
  if (limits_.quarantine_failures <= 0 ||
      failures < limits_.quarantine_failures)
    return;
  // Threshold reached: evict the entry (if still cached) and tombstone the
  // key until quarantine_ttl_inserts further inserts have happened.
  if (auto it = index_.find(key); it != index_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
    ++counters_.evictions;
  }
  failures_.erase(key);
  // Saturating add: a huge TTL (UINT64_MAX as "quarantine forever") or a
  // generation counter near the top must pin the tombstone at the far end
  // of the generation clock, not wrap past it — a wrapped expiry generation
  // would be <= counters_.inserts and the tombstone would die at its very
  // first check, re-admitting the poisoned key immediately.
  const std::uint64_t g = counters_.inserts;
  const std::uint64_t ttl = limits_.quarantine_ttl_inserts;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  tombstones_[key] = g > kMax - ttl ? kMax : g + ttl;
  ++counters_.quarantined;
}

template <class T>
void PlanCache<T>::report_hit_success(const PlanCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  failures_.erase(key);  // quarantine counts *consecutive* failures
}

template <class T>
void PlanCache<T>::note_retry_success() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.retry_successes;
}

template <class T>
void PlanCache<T>::note_lease_waits(std::uint64_t waits) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.lease_waits += waits;
}

template <class T>
bool PlanCache<T>::quarantined(const PlanCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  return tombstoned_locked(key);
}

template <class T>
PlanCacheStats PlanCache<T>::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheStats s = counters_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  s.tombstones = tombstones_.size();
  return s;
}

template <class T>
void PlanCache<T>::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  failures_.clear();
  tombstones_.clear();
  bytes_ = 0;
}

template class PlanCache<float>;
template class PlanCache<double>;

}  // namespace blocktri
