// Parity of the hashed-feature-id path with the legacy string-named path.
//
// Feature ids are defined as Fnv1a64 of the exact legacy feature-name bytes
// (ml/feature_id.h), so two properties together guarantee that training
// and extraction behave byte-identically to the string-named featurizer:
//   1. every emitted id equals the hash of its traced legacy name, and
//   2. no two distinct names on the corpus collide into one id (dense
//      indices then mirror the string path's first-occurrence order).
// Model files carry the ids themselves (format version 2): a model
// round-tripped through SaveModel/LoadModel extracts identically, and a
// version-1 file with a string-named `#features` dictionary is rejected.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/entity_matcher.h"
#include "core/extractor.h"
#include "core/model_io.h"
#include "core/relation_annotator.h"
#include "core/topic_identification.h"
#include "core/training.h"
#include "testing/fixtures.h"
#include "util/string_util.h"

namespace ceres {
namespace {

using testing::FilmPageHtml;
using testing::ParseOrDie;
using testing::TinyMovieKb;

struct ParityFixture {
  ParityFixture() {
    docs.push_back(ParseOrDie(FilmPageHtml(
        "Do the Right Thing", "Spike Lee", "Spike Lee",
        {"Spike Lee", "Danny Aiello", "John Turturro"},
        {"Comedy", "Dramedy"})));
    docs.push_back(ParseOrDie(FilmPageHtml(
        "Crooklyn", "Spike Lee", "Nobody", {"Zelda Harris"}, {"Comedy"})));
    docs.push_back(ParseOrDie(FilmPageHtml(
        "Malcolm X", "Spike Lee", "Arnold Perl", {"Denzel Washington"},
        {"Dramedy"})));
    for (const DomDocument& doc : docs) {
      ptrs.push_back(&doc);
      mentions.push_back(MatchPageMentions(doc, kb.kb));
    }
    TopicConfig config;
    config.min_annotations_per_page = 2;
    config.common_string_min_count = 100;
    topics = IdentifyTopics(ptrs, mentions, kb.kb, config);
    annotations = AnnotateRelations(ptrs, mentions, topics, kb.kb, {});
  }

  TinyMovieKb kb;
  std::vector<DomDocument> docs;
  std::vector<const DomDocument*> ptrs;
  std::vector<PageMentions> mentions;
  TopicResult topics;
  AnnotationResult annotations;
};

TEST(FeatureIdParityTest, EveryEmittedIdIsTheHashOfItsLegacyName) {
  ParityFixture fixture;
  FeatureExtractor featurizer(fixture.ptrs, FeatureConfig{});
  HashedFeatureMap map;
  FeatureNameTrace trace;
  for (const DomDocument* doc : fixture.ptrs) {
    for (NodeId node : doc->TextFields()) {
      featurizer.Extract(*doc, node, &map, {}, nullptr, &trace);
    }
  }
  ASSERT_GT(map.size(), 0);
  for (int32_t f = 0; f < map.size(); ++f) {
    const uint64_t id = map.IdAt(f);
    const std::string& name = trace.NameOf(id);
    ASSERT_FALSE(name.empty()) << "untraced feature id " << id;
    EXPECT_EQ(Fnv1a64(name), id) << name;
    // Legacy name shapes: structural or text features.
    EXPECT_TRUE(name.rfind("S|", 0) == 0 || name.rfind("T|", 0) == 0) << name;
  }
}

TEST(FeatureIdParityTest, NoNameCollisionsAcrossTheCorpusVocabulary) {
  ParityFixture fixture;
  FeatureExtractor featurizer(fixture.ptrs, FeatureConfig{});
  // Per-node traces feed a global id -> name table; a collision would
  // surface as the same id carrying two different names on different nodes.
  std::unordered_map<uint64_t, std::string> global;
  std::unordered_set<std::string> distinct_names;
  for (const DomDocument* doc : fixture.ptrs) {
    for (NodeId node : doc->TextFields()) {
      HashedFeatureMap throwaway;
      FeatureNameTrace trace;
      featurizer.Extract(*doc, node, &throwaway, {}, nullptr, &trace);
      for (const auto& [id, name] : trace.names()) {
        auto [it, inserted] = global.emplace(id, name);
        if (!inserted) {
          EXPECT_EQ(it->second, name) << "feature id collision on " << id;
        }
        distinct_names.insert(name);
      }
    }
  }
  EXPECT_EQ(global.size(), distinct_names.size());
  EXPECT_GT(global.size(), 50u);
}

TEST(FeatureIdParityTest, V1StringNamedFileIsRejectedAndV2RoundTripIsExact) {
  ParityFixture fixture;
  ASSERT_FALSE(fixture.annotations.annotations.empty());
  FeatureExtractor featurizer(fixture.ptrs, FeatureConfig{});
  Result<TrainedModel> trained =
      TrainExtractor(fixture.ptrs, fixture.annotations.annotations,
                     featurizer, fixture.kb.kb.ontology(), TrainingConfig{});
  ASSERT_TRUE(trained.ok());

  std::vector<PageIndex> indices;
  for (size_t p = 0; p < fixture.ptrs.size(); ++p) {
    indices.push_back(static_cast<PageIndex>(p));
  }
  std::vector<Extraction> expected = ExtractFromPages(
      fixture.ptrs, indices, &*trained, featurizer, {});
  ASSERT_FALSE(expected.empty());

  // Trace the legacy names of the trained vocabulary by re-featurizing.
  HashedFeatureMap scratch;
  FeatureNameTrace trace;
  for (const DomDocument* doc : fixture.ptrs) {
    for (NodeId node : doc->TextFields()) {
      featurizer.Extract(*doc, node, &scratch, {}, nullptr, &trace);
    }
  }

  // Serialize as v2, then rewrite the dictionary as a version-1 file:
  // no #format section, #features carrying the legacy names.
  std::ostringstream out;
  ASSERT_TRUE(SaveModel(*trained, fixture.kb.kb.ontology(), &out).ok());
  const std::string v2_text = out.str();
  ASSERT_NE(v2_text.find("#format\n2\n"), std::string::npos);
  ASSERT_NE(v2_text.find("#featureids\n"), std::string::npos);

  std::string v1_text = v2_text;
  v1_text.replace(v1_text.find("#format\n2\n"), 10, "");
  const size_t ids_at = v1_text.find("#featureids\n");
  const size_t weights_at = v1_text.find("#weights\n");
  ASSERT_NE(ids_at, std::string::npos);
  ASSERT_NE(weights_at, std::string::npos);
  std::string features_section = "#features\n";
  for (int32_t f = 0; f < trained->features.size(); ++f) {
    features_section +=
        StrCat(f, "\t", trace.NameOf(trained->features.IdAt(f)), "\n");
  }
  v1_text.replace(ids_at, weights_at - ids_at, features_section);

  // Version 1 is no longer read: the string-named dictionary, a missing
  // #format section, and an explicit version 1 are each a typed error.
  auto load_code = [&fixture](const std::string& text) {
    std::istringstream in(text);
    return LoadModel(&in, fixture.kb.kb.ontology()).status().code();
  };
  EXPECT_EQ(load_code(v1_text), StatusCode::kInvalidArgument);
  std::string no_format = v2_text;
  no_format.replace(no_format.find("#format\n2\n"), 10, "");
  EXPECT_EQ(load_code(no_format), StatusCode::kInvalidArgument);
  std::string version_one = v2_text;
  version_one.replace(version_one.find("#format\n2\n"), 10, "#format\n1\n");
  EXPECT_EQ(load_code(version_one), StatusCode::kInvalidArgument);

  // The v2 round trip is exact.
  std::istringstream v2_in(v2_text);
  Result<TrainedModel> v2_model = LoadModel(&v2_in, fixture.kb.kb.ontology());
  ASSERT_TRUE(v2_model.ok()) << v2_model.status().ToString();
  FeatureExtractor v2_featurizer = MakeFeaturizer(*v2_model);
  std::vector<Extraction> v2_actual = ExtractFromPages(
      fixture.ptrs, indices, &*v2_model, v2_featurizer, {});
  ASSERT_EQ(v2_actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(v2_actual[i].object, expected[i].object);
    EXPECT_EQ(v2_actual[i].confidence, expected[i].confidence);
  }
}

}  // namespace
}  // namespace ceres
