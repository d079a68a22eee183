#include "serve/page_cache.h"

#include <functional>
#include <iterator>
#include <utility>

#include "obs/metrics.h"

namespace ceres::serve {

namespace {

void BumpCacheCounter(const char* name, int64_t delta = 1) {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry::Default().GetCounter(name)->Increment(delta);
}

size_t PageKey(std::string_view html) {
  return std::hash<std::string_view>{}(html);
}

}  // namespace

NearDupCache::NearDupCache(PageCacheConfig config)
    : config_(std::move(config)) {}

size_t NearDupCache::EntryBytes(const Entry& entry) {
  // Fixed overhead per entry: list node, index slot, bookkeeping. The page
  // bytes (kept for the hit compare) and the diagnostics payload (replayed
  // on hits) count against the byte budget like the triples.
  size_t bytes = 128 + entry.site.size() + entry.html.size() +
                 sizeof(entry.result.diagnostics);
  for (const Extraction& triple : entry.result.triples) {
    bytes += sizeof(Extraction) + triple.subject.size() +
             triple.object.size();
  }
  return bytes;
}

NearDupCache::EntryList::iterator NearDupCache::FindLocked(
    size_t key, const std::string& site, std::string_view html) {
  auto [begin, end] = index_.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    const Entry& entry = *it->second;
    if (entry.site == site && entry.html == html) return it->second;
  }
  return lru_.end();
}

bool NearDupCache::Lookup(const std::string& site, std::string_view html,
                          CachedExtraction* out) {
  if (!config_.enabled) return false;
  const size_t key = PageKey(html);
  MutexLock lock(mu_);
  EntryList::iterator entry = FindLocked(key, site, html);
  if (entry == lru_.end()) {
    ++stats_.misses;
    BumpCacheCounter("ceres_cache_neardup_misses_total");
    return false;
  }
  lru_.splice(lru_.begin(), lru_, entry);
  ++stats_.hits;
  BumpCacheCounter("ceres_cache_neardup_hits_total");
  *out = entry->result;
  return true;
}

uint64_t NearDupCache::generation() const {
  MutexLock lock(mu_);
  return generation_;
}

void NearDupCache::Insert(const std::string& site, std::string html,
                          CachedExtraction result, uint64_t generation) {
  if (!config_.enabled) return;
  const size_t key = PageKey(html);
  MutexLock lock(mu_);
  if (generation != generation_) return;
  EntryList::iterator entry = FindLocked(key, site, html);
  if (entry != lru_.end()) {
    // Refresh in place: latest extraction of this page wins. Accounting-
    // wise this is an insertion that evicts the payload it replaces,
    // keeping insertions == entries + evictions + invalidations intact.
    bytes_ -= entry->bytes;
    entry->result = std::move(result);
    entry->bytes = EntryBytes(*entry);
    bytes_ += entry->bytes;
    lru_.splice(lru_.begin(), lru_, entry);
    ++stats_.insertions;
    ++stats_.evictions;
    EvictOverBudgetLocked();
    return;
  }
  lru_.push_front(Entry{site, std::move(html), key, 0, std::move(result)});
  lru_.front().bytes = EntryBytes(lru_.front());
  bytes_ += lru_.front().bytes;
  index_.emplace(key, lru_.begin());
  ++stats_.insertions;
  EvictOverBudgetLocked();
}

void NearDupCache::EraseLocked(EntryList::iterator it) {
  auto [begin, end] = index_.equal_range(it->key);
  for (auto slot = begin; slot != end; ++slot) {
    if (slot->second == it) {
      index_.erase(slot);
      break;
    }
  }
  bytes_ -= it->bytes;
  lru_.erase(it);
}

void NearDupCache::EvictOverBudgetLocked() {
  while (bytes_ > config_.max_bytes && !lru_.empty()) {
    EraseLocked(std::prev(lru_.end()));
    ++stats_.evictions;
  }
}

void NearDupCache::InvalidateSite(const std::string& site) {
  MutexLock lock(mu_);
  ++generation_;
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    if (it->site == site) {
      EraseLocked(it);
      ++stats_.invalidations;
    }
    it = next;
  }
}

void NearDupCache::Clear() {
  MutexLock lock(mu_);
  ++generation_;
  stats_.invalidations += static_cast<int64_t>(lru_.size());
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

PageCacheStats NearDupCache::stats() const {
  MutexLock lock(mu_);
  PageCacheStats out = stats_;
  out.entries = lru_.size();
  out.bytes = bytes_;
  return out;
}

}  // namespace ceres::serve
