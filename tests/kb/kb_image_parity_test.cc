// Parity tests: a KB opened from its mmap'd image must answer every query
// byte-identically to the heap-frozen KB that wrote the image. The two
// backings share serving code by construction (both read the flat image
// through one code path per query), so these tests guard that invariant
// at corpus scale: mention matching over every name and alias, the triple
// and object queries, and end-to-end pipeline output.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/entity_matcher.h"
#include "core/pipeline.h"
#include "dom/html_parser.h"
#include "kb/knowledge_base.h"
#include "synth/corpora.h"
#include "synth/kb_builder.h"
#include "util/string_util.h"

namespace ceres {
namespace {

template <typename T>
std::vector<T> ToVector(std::span<const T> span) {
  return std::vector<T>(span.begin(), span.end());
}

class KbImageParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::MovieWorldConfig config;
    config.scale = 0.15;
    world_ = new synth::World(synth::BuildMovieWorld(config));
    synth::SeedKbConfig kb_config;
    kb_config.default_coverage = 0.9;
    heap_ = new KnowledgeBase(synth::BuildSeedKb(*world_, kb_config));

    // gtest_discover_tests runs each case in its own process, each with its
    // own SetUpTestSuite: the pid keeps one process's TearDownTestSuite from
    // removing the image another process is still reading.
    image_path_ = new std::string(
        StrCat(::testing::TempDir(), "/parity.", ::getpid(), ".kbi"));
    ASSERT_TRUE(heap_->SaveImage(*image_path_).ok());
    KnowledgeBase::OpenOptions options;
    options.verify_checksum = true;
    Result<KnowledgeBase> mapped =
        KnowledgeBase::OpenImage(*image_path_, options);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    mapped_ = new KnowledgeBase(std::move(mapped).value());
  }

  // gtest runs the bodies even when SetUpTestSuite failed part-way; stop
  // here rather than dereference a null mapped_.
  void SetUp() override {
    ASSERT_NE(mapped_, nullptr) << "SetUpTestSuite did not finish";
  }

  static void TearDownTestSuite() {
    std::remove(image_path_->c_str());
    delete mapped_;
    delete heap_;
    delete world_;
    delete image_path_;
    mapped_ = nullptr;
    heap_ = nullptr;
    world_ = nullptr;
    image_path_ = nullptr;
  }

  static synth::World* world_;
  static KnowledgeBase* heap_;
  static KnowledgeBase* mapped_;
  static std::string* image_path_;
};

synth::World* KbImageParityTest::world_ = nullptr;
KnowledgeBase* KbImageParityTest::heap_ = nullptr;
KnowledgeBase* KbImageParityTest::mapped_ = nullptr;
std::string* KbImageParityTest::image_path_ = nullptr;

TEST_F(KbImageParityTest, CatalogMatches) {
  ASSERT_EQ(heap_->num_entities(), mapped_->num_entities());
  ASSERT_EQ(heap_->num_triples(), mapped_->num_triples());
  for (EntityId id = 0; id < heap_->num_entities(); ++id) {
    const Entity a = heap_->entity(id);
    const Entity b = mapped_->entity(id);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.aliases.size(), b.aliases.size());
    for (size_t i = 0; i < a.aliases.size(); ++i) {
      EXPECT_EQ(a.aliases[i], b.aliases[i]);
    }
  }
}

TEST_F(KbImageParityTest, MentionMatchingIsIdentical) {
  // Every surface the matcher was built from, plus decorated and negative
  // probes, must return the same id list (same ids, same order) from both
  // the hash index and the image binary search.
  auto expect_same = [](std::string_view probe) {
    std::vector<EntityId> a = ToVector(heap_->MatchMentionsView(probe));
    std::vector<EntityId> b = ToVector(mapped_->MatchMentionsView(probe));
    EXPECT_EQ(a, b) << "probe: " << probe;
  };
  for (EntityId id = 0; id < heap_->num_entities(); ++id) {
    const Entity entity = heap_->entity(id);
    expect_same(entity.name);
    expect_same(StrCat("  ", entity.name, "\t"));
    expect_same(StrCat(entity.name, " (2014)"));
    for (std::string_view alias : entity.aliases) expect_same(alias);
  }
  expect_same("");
  expect_same("no such entity anywhere");
  expect_same("1999");
}

TEST_F(KbImageParityTest, TripleQueriesAreIdentical) {
  for (EntityId subject = 0; subject < heap_->num_entities(); ++subject) {
    EXPECT_EQ(ToVector(heap_->TriplesWithSubject(subject)),
              ToVector(mapped_->TriplesWithSubject(subject)));
    EXPECT_EQ(ToVector(heap_->ObjectsOfSubject(subject)),
              ToVector(mapped_->ObjectsOfSubject(subject)));
  }
  // HasTriple / PredicatesBetween over every stored triple, and over a
  // shifted probe that is mostly absent.
  for (const Triple& triple : heap_->triples()) {
    EXPECT_TRUE(mapped_->HasTriple(triple.subject, triple.predicate,
                                   triple.object));
    EXPECT_EQ(heap_->PredicatesBetween(triple.subject, triple.object),
              mapped_->PredicatesBetween(triple.subject, triple.object));
    const EntityId other = (triple.object + 1) % heap_->num_entities();
    EXPECT_EQ(heap_->HasTriple(triple.subject, triple.predicate, other),
              mapped_->HasTriple(triple.subject, triple.predicate, other));
  }
}

TEST_F(KbImageParityTest, CommonObjectStringsAreIdentical) {
  for (double fraction : {0.0001, 0.01, 0.5}) {
    EXPECT_EQ(heap_->CommonObjectStrings(fraction, 2),
              mapped_->CommonObjectStrings(fraction, 2));
  }
}

TEST_F(KbImageParityTest, PipelineOutputIsIdentical) {
  synth::SiteSpec spec;
  spec.name = "parity.example";
  spec.seed = 7;
  spec.tmpl.topic_type = "film";
  spec.tmpl.css_prefix = "pt";
  spec.tmpl.sections = {
      {synth::pred::kFilmDirectedBy, "director", synth::SectionLayout::kRow,
       0.05, 3},
      {synth::pred::kFilmHasCastMember, "cast", synth::SectionLayout::kList,
       0.05, 10},
      {synth::pred::kFilmReleaseDate, "release_date",
       synth::SectionLayout::kRow, 0.05, 1},
  };
  TypeId film = *world_->kb.ontology().TypeByName("film");
  const auto& films = world_->OfType(film);
  ASSERT_GE(films.size(), 40u);
  spec.topics.assign(films.begin(), films.begin() + 40);
  std::vector<synth::GeneratedPage> generated = GenerateSite(*world_, spec);

  std::vector<DomDocument> pages;
  for (const synth::GeneratedPage& page : generated) {
    Result<DomDocument> parsed = ParseHtml(page.html);
    ASSERT_TRUE(parsed.ok());
    pages.push_back(std::move(parsed).value());
  }

  // Per-page mention sets first (the pipeline stage that touches the
  // divergent matcher path)...
  for (const DomDocument& page : pages) {
    PageMentions a = MatchPageMentions(page, *heap_);
    PageMentions b = MatchPageMentions(page, *mapped_);
    EXPECT_EQ(a.page_set, b.page_set);
    EXPECT_EQ(a.fields, b.fields);
    EXPECT_EQ(a.candidates, b.candidates);
  }

  // ...then the whole pipeline: identical extractions, fact for fact.
  PipelineConfig config;
  Result<PipelineResult> a = RunPipeline(pages, *heap_, config);
  Result<PipelineResult> b = RunPipeline(pages, *mapped_, config);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->topic_of_page, b->topic_of_page);
  ASSERT_EQ(a->extractions.size(), b->extractions.size());
  for (size_t i = 0; i < a->extractions.size(); ++i) {
    const Extraction& x = a->extractions[i];
    const Extraction& y = b->extractions[i];
    EXPECT_EQ(x.page, y.page);
    EXPECT_EQ(x.node, y.node);
    EXPECT_EQ(x.predicate, y.predicate);
    EXPECT_EQ(x.subject, y.subject);
    EXPECT_EQ(x.object, y.object);
    EXPECT_EQ(x.confidence, y.confidence);
  }
}

}  // namespace
}  // namespace ceres
