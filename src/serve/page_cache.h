#ifndef CERES_SERVE_PAGE_CACHE_H_
#define CERES_SERVE_PAGE_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "serve/serve_diagnostics.h"
#include "util/status.h"
#include "util/sync.h"

namespace ceres::serve {

/// Configuration of the page cache.
struct PageCacheConfig {
  /// Master switch; a disabled cache never hits and never stores.
  bool enabled = true;
  /// Byte budget for resident entries (site key, page bytes, triples).
  /// LRU entries are evicted when the resident estimate exceeds it.
  size_t max_bytes = size_t{32} << 20;
};

/// Monotonic counters plus the current resident set. The counters keep
/// the identity `insertions == entries + evictions + invalidations`: a
/// re-insert of a resident page counts as one insertion plus one eviction
/// (of the payload it replaced), and Clear counts its drops as
/// invalidations.
struct PageCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  int64_t invalidations = 0;
  size_t entries = 0;
  size_t bytes = 0;
};

/// The cached outcome of one extraction: the triples plus the diagnostics
/// of the request that produced them.
struct CachedExtraction {
  std::vector<Extraction> triples;
  ServeDiagnostics diagnostics;
};

/// An exact page cache keyed by (site, page bytes).
///
/// Re-crawls hand the serving tier the same detail page over and over.
/// Parsing and model inference on a page the site's current model has
/// already extracted reproduces that extraction, so the serving tier
/// remembers recent results and answers a byte-identical resend of a page
/// of the same site from the cache, skipping parse and inference.
///
/// A hit requires identical bytes. Anything looser serves wrong facts:
/// two pages of one site template differ in a few field values, and
/// those values are exactly the facts extracted. Entries sit in a hash
/// map keyed by a hash of the HTML; each keeps its site and page bytes,
/// and a lookup compares both before it hits. The stored bytes are
/// charged to the byte budget with the triples and a fixed per-entry
/// overhead.
///
/// The type, counter and diagnostic names (`near_dup_hit`,
/// `ceres_cache_neardup_*`) predate the exact match and are kept so the
/// JSON API and metrics stay stable; a "near-dup" hit is an exact one.
///
/// When a site's model is republished or invalidated its cached
/// extractions are stale; InvalidateSite drops exactly them and bumps the
/// cache generation, so an extraction that was in flight across the
/// republish (run on the old model) cannot re-populate the cache. Eviction
/// is global LRU under the byte budget. Thread-safe; every operation is one
/// short critical section (the key hash is computed outside it).
class NearDupCache {
 public:
  explicit NearDupCache(PageCacheConfig config = {});

  NearDupCache(const NearDupCache&) = delete;
  NearDupCache& operator=(const NearDupCache&) = delete;

  /// True (and fills `out`) when a result for exactly `html` is resident
  /// for `site`; refreshes that entry's LRU position.
  bool Lookup(const std::string& site, std::string_view html,
              CachedExtraction* out);

  /// Bumped by every InvalidateSite and Clear. Read it before starting
  /// the extraction whose result will be inserted.
  uint64_t generation() const;

  /// Stores `result` for (site, html), unless an invalidation ran since
  /// `generation` was read: the result may then come from a replaced
  /// model and is dropped. A resident entry for the same page is
  /// refreshed in place (latest result wins).
  void Insert(const std::string& site, std::string html,
              CachedExtraction result, uint64_t generation);

  /// Drops every entry of `site` (model republished / invalidated).
  void InvalidateSite(const std::string& site);

  void Clear();

  PageCacheStats stats() const;
  const PageCacheConfig& config() const { return config_; }

 private:
  struct Entry {
    std::string site;
    std::string html;
    size_t key = 0;
    size_t bytes = 0;
    CachedExtraction result;
  };
  using EntryList = std::list<Entry>;

  static size_t EntryBytes(const Entry& entry);
  /// The resident entry for (site, html) under `key`, or lru_.end().
  EntryList::iterator FindLocked(size_t key, const std::string& site,
                                 std::string_view html) CERES_REQUIRES(mu_);
  /// Unlinks `it` from the index and the LRU list.
  void EraseLocked(EntryList::iterator it) CERES_REQUIRES(mu_);
  void EvictOverBudgetLocked() CERES_REQUIRES(mu_);

  const PageCacheConfig config_;

  mutable CheckedMutex mu_{"NearDupCache.mu"};
  /// Most-recently used at the front.
  EntryList lru_ CERES_GUARDED_BY(mu_);
  /// HTML hash -> resident entries with that hash (any site).
  std::unordered_multimap<size_t, EntryList::iterator> index_
      CERES_GUARDED_BY(mu_);
  size_t bytes_ CERES_GUARDED_BY(mu_) = 0;
  uint64_t generation_ CERES_GUARDED_BY(mu_) = 0;
  PageCacheStats stats_ CERES_GUARDED_BY(mu_);
};

}  // namespace ceres::serve

#endif  // CERES_SERVE_PAGE_CACHE_H_
