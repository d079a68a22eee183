#include "kb/knowledge_base.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ceres {
namespace {

class KnowledgeBaseTest : public ::testing::Test {
 protected:
  KnowledgeBaseTest() : kb_(MakeOntology()) {
    film_type_ = *kb_.ontology().TypeByName("film");
    person_type_ = *kb_.ontology().TypeByName("person");
    directed_ = *kb_.ontology().PredicateByName("directedBy");
    wrote_ = *kb_.ontology().PredicateByName("writtenBy");

    film_ = kb_.AddEntity(film_type_, "Do the Right Thing");
    other_film_ = kb_.AddEntity(film_type_, "Crooklyn");
    lee_ = kb_.AddEntity(person_type_, "Spike Lee");
    kb_.AddAlias(lee_, "S. Lee");
    kb_.AddTriple(film_, directed_, lee_);
    kb_.AddTriple(film_, wrote_, lee_);
    kb_.AddTriple(other_film_, directed_, lee_);
    kb_.AddTriple(other_film_, directed_, lee_);  // Duplicate, collapsed.
  }

  static Ontology MakeOntology() {
    Ontology ontology;
    TypeId film = ontology.AddEntityType("film");
    TypeId person = ontology.AddEntityType("person");
    ontology.AddPredicate("directedBy", film, person, true);
    ontology.AddPredicate("writtenBy", film, person, true);
    return ontology;
  }

  KnowledgeBase kb_;
  TypeId film_type_ = kInvalidType;
  TypeId person_type_ = kInvalidType;
  PredicateId directed_ = kInvalidPredicate;
  PredicateId wrote_ = kInvalidPredicate;
  EntityId film_ = kInvalidEntity;
  EntityId other_film_ = kInvalidEntity;
  EntityId lee_ = kInvalidEntity;
};

TEST_F(KnowledgeBaseTest, FreezeDeduplicatesTriples) {
  kb_.Freeze();
  EXPECT_EQ(kb_.num_triples(), 3);
  EXPECT_EQ(kb_.num_entities(), 3);
}

TEST_F(KnowledgeBaseTest, MatchMentionsByNameAndAlias) {
  kb_.Freeze();
  EXPECT_EQ(kb_.MatchMentions("spike lee"), (std::vector<EntityId>{lee_}));
  EXPECT_EQ(kb_.MatchMentions("S. Lee"), (std::vector<EntityId>{lee_}));
  EXPECT_TRUE(kb_.MatchMentions("Nobody").empty());
}

TEST_F(KnowledgeBaseTest, TriplesWithSubject) {
  kb_.Freeze();
  std::span<const Triple> triples = kb_.TriplesWithSubject(film_);
  EXPECT_EQ(triples.size(), 2u);
  EXPECT_TRUE(kb_.TriplesWithSubject(lee_).empty());
  // The span aliases the frozen triple store and is sorted by
  // (subject, predicate, object).
  for (const Triple& triple : triples) EXPECT_EQ(triple.subject, film_);
}

TEST_F(KnowledgeBaseTest, ObjectsOfSubject) {
  kb_.Freeze();
  std::span<const EntityId> objects = kb_.ObjectsOfSubject(film_);
  EXPECT_EQ(objects.size(), 1u);
  EXPECT_TRUE(std::binary_search(objects.begin(), objects.end(), lee_));
  EXPECT_TRUE(kb_.ObjectsOfSubject(lee_).empty());
}

TEST_F(KnowledgeBaseTest, PredicatesBetween) {
  kb_.Freeze();
  std::vector<PredicateId> predicates = kb_.PredicatesBetween(film_, lee_);
  EXPECT_EQ(predicates.size(), 2u);
  EXPECT_TRUE(kb_.PredicatesBetween(lee_, film_).empty());
}

TEST_F(KnowledgeBaseTest, HasTriple) {
  kb_.Freeze();
  EXPECT_TRUE(kb_.HasTriple(film_, directed_, lee_));
  EXPECT_TRUE(kb_.HasTriple(other_film_, directed_, lee_));
  EXPECT_FALSE(kb_.HasTriple(other_film_, wrote_, lee_));
}

TEST_F(KnowledgeBaseTest, CommonObjectStrings) {
  kb_.Freeze();
  // "spike lee" is object of all 3 triples.
  auto common = kb_.CommonObjectStrings(0.5);
  EXPECT_EQ(common.size(), 1u);
  EXPECT_TRUE(common.count("spike lee") > 0);
  // With a min_count floor above 3, nothing qualifies.
  EXPECT_TRUE(kb_.CommonObjectStrings(0.5, 10).empty());
}

TEST_F(KnowledgeBaseTest, CountsByType) {
  kb_.Freeze();
  EXPECT_EQ(kb_.CountEntitiesOfType(film_type_), 2);
  EXPECT_EQ(kb_.CountEntitiesOfType(person_type_), 1);
  EXPECT_EQ(kb_.CountPredicatesForSubjectType(film_type_), 2);
  EXPECT_EQ(kb_.CountPredicatesForSubjectType(person_type_), 0);
}

TEST_F(KnowledgeBaseTest, QueriesRequireFreeze) {
  EXPECT_DEATH(kb_.MatchMentions("x"), "");
  EXPECT_DEATH(kb_.TriplesWithSubject(film_), "");
}

TEST_F(KnowledgeBaseTest, MutationAfterFreezeDies) {
  kb_.Freeze();
  EXPECT_DEATH(kb_.AddEntity(film_type_, "Late"), "");
  EXPECT_DEATH(kb_.AddTriple(film_, directed_, lee_), "");
}

// Mention matching (§3.1.1 step 1) on both backings. Every case builds a
// KB, freezes it and, for the mapped backing, saves the image and re-opens
// it with OpenImage, so each matching behaviour is checked on the heap
// buffer and on the file mapping through the one lookup path.
enum class Backing { kHeapFrozen, kMapped };

class MentionMatchingTest : public ::testing::TestWithParam<Backing> {
 protected:
  MentionMatchingTest() : build_(MakeOntology()) {}

  ~MentionMatchingTest() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }

  static Ontology MakeOntology() {
    Ontology ontology;
    ontology.AddEntityType("thing");
    return ontology;
  }

  /// Registers an entity under `name` plus `aliases`; ids are assigned in
  /// registration order.
  EntityId Add(std::string_view name,
               std::initializer_list<std::string_view> aliases = {}) {
    const EntityId id = build_.AddEntity(0, name);
    for (std::string_view alias : aliases) build_.AddAlias(id, alias);
    return id;
  }

  /// Freezes the KB and returns it in the backing under test.
  const KnowledgeBase& Frozen() {
    build_.Freeze();
    if (GetParam() == Backing::kHeapFrozen) return build_;
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->name());
    std::replace(name.begin(), name.end(), '/', '_');
    path_ = ::testing::TempDir() + "/kb_match_" + name + ".kbi";
    EXPECT_TRUE(build_.SaveImage(path_).ok());
    KnowledgeBase::OpenOptions options;
    options.verify_checksum = true;
    Result<KnowledgeBase> mapped = KnowledgeBase::OpenImage(path_, options);
    EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
    mapped_ = std::make_unique<KnowledgeBase>(std::move(mapped).value());
    EXPECT_TRUE(mapped_->mapped());
    return *mapped_;
  }

 private:
  KnowledgeBase build_;
  std::unique_ptr<KnowledgeBase> mapped_;
  std::string path_;
};

TEST_P(MentionMatchingTest, ExactNormalizedMatch) {
  const EntityId film = Add("Do the Right Thing");
  const KnowledgeBase& kb = Frozen();
  EXPECT_EQ(kb.MatchMentions("do the right thing"),
            (std::vector<EntityId>{film}));
  EXPECT_EQ(kb.MatchMentions("DO THE RIGHT THING!"),
            (std::vector<EntityId>{film}));
  EXPECT_TRUE(kb.MatchMentions("something else").empty());
}

TEST_P(MentionMatchingTest, AmbiguousNamesReturnAllIdsInRegistrationOrder) {
  const EntityId a = Add("Pilot");
  Add("Crooklyn");
  const EntityId b = Add("pilot");
  const EntityId c = Add("PILOT");
  const KnowledgeBase& kb = Frozen();
  EXPECT_EQ(kb.MatchMentions("Pilot"), (std::vector<EntityId>{a, b, c}));
}

TEST_P(MentionMatchingTest, DuplicateNameIdCollapsed) {
  // The alias normalizes to the entity's own name: one (key, id) entry.
  const EntityId selma = Add("Selma", {"Selma", "SELMA!"});
  const KnowledgeBase& kb = Frozen();
  EXPECT_EQ(kb.MatchMentions("Selma"), (std::vector<EntityId>{selma}));
}

TEST_P(MentionMatchingTest, AliasesResolveToTheSameId) {
  const EntityId twain = Add("Samuel Clemens", {"Mark Twain"});
  const KnowledgeBase& kb = Frozen();
  EXPECT_EQ(kb.MatchMentions("mark twain"), (std::vector<EntityId>{twain}));
  EXPECT_EQ(kb.MatchMentions("Samuel Clemens"),
            (std::vector<EntityId>{twain}));
}

TEST_P(MentionMatchingTest, TrailingYearStripped) {
  const EntityId film = Add("Do the Right Thing");
  const KnowledgeBase& kb = Frozen();
  EXPECT_EQ(kb.MatchMentions("Do the Right Thing (1989)"),
            (std::vector<EntityId>{film}));
}

TEST_P(MentionMatchingTest, YearNotStrippedWhenNameHasYear) {
  const EntityId remake = Add("Class of 1984");
  const EntityId selma = Add("Selma");
  const EntityId dated = Add("Selma 2014");
  const KnowledgeBase& kb = Frozen();
  EXPECT_EQ(kb.MatchMentions("Class of 1984"),
            (std::vector<EntityId>{remake}));
  // An exact hit on a year-suffixed name wins; the year-free retry only
  // runs on a miss.
  EXPECT_EQ(kb.MatchMentions("Selma (2014)"), (std::vector<EntityId>{dated}));
  EXPECT_EQ(kb.MatchMentions("Selma"), (std::vector<EntityId>{selma}));
}

TEST_P(MentionMatchingTest, AccentInsensitive) {
  const EntityId amelie = Add("Amélie");
  const KnowledgeBase& kb = Frozen();
  EXPECT_EQ(kb.MatchMentions("Amelie"), (std::vector<EntityId>{amelie}));
}

TEST_P(MentionMatchingTest, EmptyAndBlankNamesNeverMatch) {
  Add("");
  Add("  !! ", {"", " "});
  const KnowledgeBase& kb = Frozen();
  // Names that normalize to nothing are not indexed at all.
  KbImageHeader header;
  ASSERT_GE(kb.image_bytes().size(), sizeof(header));
  std::memcpy(&header, kb.image_bytes().data(), sizeof(header));
  EXPECT_EQ(header.sections[kKbSectionNameKeys].bytes, 0u);
  EXPECT_TRUE(kb.MatchMentions("").empty());
  EXPECT_TRUE(kb.MatchMentions("  !! ").empty());
}

TEST_P(MentionMatchingTest, MatchMentionsViewAgreesWithMatchMentions) {
  const EntityId film = Add("Do the Right Thing");
  const EntityId a = Add("Pilot");
  const EntityId b = Add("Pilot");
  const KnowledgeBase& kb = Frozen();
  const std::span<const EntityId> hit = kb.MatchMentionsView("pilot");
  EXPECT_EQ(std::vector<EntityId>(hit.begin(), hit.end()),
            kb.MatchMentions("pilot"));
  // The span is a view into the KB image, valid across lookups.
  const std::span<const EntityId> other =
      kb.MatchMentionsView("DO THE RIGHT THING (1989)");
  EXPECT_EQ(std::vector<EntityId>(other.begin(), other.end()),
            (std::vector<EntityId>{film}));
  EXPECT_EQ(std::vector<EntityId>(hit.begin(), hit.end()),
            (std::vector<EntityId>{a, b}));
  EXPECT_TRUE(kb.MatchMentionsView("nobody").empty());
}

INSTANTIATE_TEST_SUITE_P(
    Backings, MentionMatchingTest,
    ::testing::Values(Backing::kHeapFrozen, Backing::kMapped),
    [](const ::testing::TestParamInfo<Backing>& info) {
      return info.param == Backing::kHeapFrozen ? "HeapFrozen" : "Mapped";
    });

}  // namespace
}  // namespace ceres
