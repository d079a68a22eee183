#include "serve/page_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

namespace ceres::serve {
namespace {

/// A film detail page with one templated field value; the surrounding
/// markup dwarfs the field, as on a real crawl.
std::string FilmPage(const std::string& director) {
  std::string html = "<html><head><title>Film Detail</title></head><body>";
  for (int i = 0; i < 40; ++i) {
    html += "<div class=nav>section " + std::to_string(i) + " link</div>";
  }
  html += "<span class=director>Directed by " + director + "</span>";
  html += "<footer>copyright example films corporation</footer></body>";
  return html;
}

CachedExtraction OneTripleResult(const std::string& subject,
                                 const std::string& object) {
  CachedExtraction result;
  Extraction triple;
  triple.subject = subject;
  triple.object = object;
  triple.confidence = 0.9;
  result.triples.push_back(triple);
  return result;
}

/// Inserts at the cache's current generation: no invalidation in between.
void Insert(NearDupCache* cache, const std::string& site, std::string html,
            CachedExtraction result) {
  cache->Insert(site, std::move(html), std::move(result),
                cache->generation());
}

TEST(NearDupCacheTest, PagesDifferingInOneFieldNeverShareAnEntry) {
  // Two pages of one template differ only in the extracted value; a
  // cache that matched them would answer one film with the other's
  // director.
  NearDupCache cache;
  const std::string lee = FilmPage("Spike Lee");
  const std::string duvernay = FilmPage("Ava DuVernay");
  Insert(&cache, "films.example", lee, OneTripleResult("film", "Spike Lee"));

  CachedExtraction out;
  EXPECT_FALSE(cache.Lookup("films.example", duvernay, &out));
  Insert(&cache, "films.example", duvernay,
               OneTripleResult("film", "Ava DuVernay"));
  EXPECT_EQ(cache.stats().entries, 2u);

  // A byte-identical resend of either page still hits, with its own
  // triples.
  ASSERT_TRUE(cache.Lookup("films.example", lee, &out));
  ASSERT_EQ(out.triples.size(), 1u);
  EXPECT_EQ(out.triples[0].object, "Spike Lee");
  ASSERT_TRUE(cache.Lookup("films.example", duvernay, &out));
  ASSERT_EQ(out.triples.size(), 1u);
  EXPECT_EQ(out.triples[0].object, "Ava DuVernay");
}

TEST(NearDupCacheTest, CaseOrWhitespaceChurnedRecrawlMisses) {
  // Case and whitespace are page bytes like any other: a churned re-crawl
  // is a different page and runs extraction again.
  NearDupCache cache;
  const std::string first = "<div>Directed By Spike Lee</div>";
  Insert(&cache, "films.example", first, OneTripleResult("film", "spike lee"));
  CachedExtraction out;
  EXPECT_FALSE(cache.Lookup("films.example",
                            "<DIV>\n  directed   by   SPIKE LEE\n</DIV>",
                            &out));
  ASSERT_TRUE(cache.Lookup("films.example", first, &out));
  ASSERT_EQ(out.triples.size(), 1u);
  EXPECT_EQ(out.triples[0].object, "spike lee");
  const PageCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
}

TEST(NearDupCacheTest, EntriesAreScopedToTheirSite) {
  NearDupCache cache;
  const std::string page = FilmPage("Spike Lee");
  Insert(&cache, "films.example", page, OneTripleResult("a", "b"));
  CachedExtraction out;
  EXPECT_TRUE(cache.Lookup("films.example", page, &out));
  // The identical page under another site must not match: that site's
  // model never produced these extractions.
  EXPECT_FALSE(cache.Lookup("books.example", page, &out));
}

TEST(NearDupCacheTest, ExactFingerprintInsertRefreshesInPlace) {
  NearDupCache cache;
  const std::string page = FilmPage("Spike Lee");
  Insert(&cache, "films.example", page, OneTripleResult("film", "old"));
  Insert(&cache, "films.example", page, OneTripleResult("film", "new"));
  EXPECT_EQ(cache.stats().entries, 1u);
  CachedExtraction out;
  ASSERT_TRUE(cache.Lookup("films.example", page, &out));
  ASSERT_EQ(out.triples.size(), 1u);
  // Latest extraction of the page wins.
  EXPECT_EQ(out.triples[0].object, "new");
}

TEST(NearDupCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Empty-result entries of one-character sites and four-byte pages cost
  // 128 + 1 + 4 bytes plus the cached diagnostics record each; size the
  // budget to hold exactly two of them.
  PageCacheConfig config;
  config.max_bytes = 2 * (133 + sizeof(ServeDiagnostics)) + 1;
  NearDupCache cache(config);
  CachedExtraction out;
  Insert(&cache, "a", "pg-a", {});
  Insert(&cache, "b", "pg-b", {});
  // Touch "a" so "b" is the least recently used when the budget trips.
  ASSERT_TRUE(cache.Lookup("a", "pg-a", &out));
  Insert(&cache, "c", "pg-c", {});

  EXPECT_TRUE(cache.Lookup("a", "pg-a", &out));
  EXPECT_FALSE(cache.Lookup("b", "pg-b", &out));
  EXPECT_TRUE(cache.Lookup("c", "pg-c", &out));
  const PageCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, config.max_bytes);
}

TEST(NearDupCacheTest, StatsBalanceAndBytesReturnToZeroAfterInvalidation) {
  NearDupCache cache;
  // The byte estimate charges the stored page and the cached diagnostics
  // record, not just the triples: both are kept for every entry.
  const std::string page = FilmPage("Spike Lee");
  Insert(&cache, "a.example", page, {});
  EXPECT_GE(cache.stats().bytes,
            128 + page.size() + sizeof(ServeDiagnostics));

  // Re-inserting a resident page counts as insertion + eviction so the
  // stats identity below holds.
  Insert(&cache, "a.example", page, OneTripleResult("film", "director"));
  Insert(&cache, "a.example", "page two", OneTripleResult("film", "year"));
  Insert(&cache, "b.example", "page three", OneTripleResult("book", "author"));
  EXPECT_EQ(cache.stats().insertions, 4);

  cache.InvalidateSite("a.example");
  cache.InvalidateSite("b.example");
  const PageCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.insertions, static_cast<int64_t>(stats.entries) +
                                  stats.evictions + stats.invalidations);
}

TEST(NearDupCacheTest, InvalidateSiteDropsExactlyThatSite) {
  NearDupCache cache;
  Insert(&cache, "films.example", "one", OneTripleResult("f", "x"));
  Insert(&cache, "films.example", "two", OneTripleResult("f", "y"));
  // The same page bytes under another site share a hash bucket but not
  // an entry.
  Insert(&cache, "books.example", "one", OneTripleResult("b", "z"));
  cache.InvalidateSite("films.example");

  CachedExtraction out;
  EXPECT_FALSE(cache.Lookup("films.example", "one", &out));
  EXPECT_FALSE(cache.Lookup("films.example", "two", &out));
  ASSERT_TRUE(cache.Lookup("books.example", "one", &out));
  EXPECT_EQ(out.triples[0].object, "z");
  const PageCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.invalidations, 2);
}

TEST(NearDupCacheTest, ResultStartedBeforeAnInvalidationIsNotInserted) {
  // An extraction in flight across a republish ran on the old model; its
  // result must not re-populate the cache the republish just cleared.
  NearDupCache cache;
  const uint64_t before = cache.generation();
  cache.InvalidateSite("films.example");
  cache.Insert("films.example", "page", OneTripleResult("f", "old model"),
               before);
  CachedExtraction out;
  EXPECT_FALSE(cache.Lookup("films.example", "page", &out));
  Insert(&cache, "films.example", "page", OneTripleResult("f", "new model"));
  ASSERT_TRUE(cache.Lookup("films.example", "page", &out));
  EXPECT_EQ(out.triples[0].object, "new model");
}

TEST(NearDupCacheTest, DisabledCacheNeverStoresOrCounts) {
  PageCacheConfig config;
  config.enabled = false;
  NearDupCache cache(config);
  Insert(&cache, "films.example", "page", OneTripleResult("a", "b"));
  CachedExtraction out;
  EXPECT_FALSE(cache.Lookup("films.example", "page", &out));
  const PageCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
}

}  // namespace
}  // namespace ceres::serve
