#include "serve/sharded_service.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "serve/serve_test_util.h"

namespace ceres::serve {
namespace {

using ceres::testing::ParseOrDie;
using ceres::testing::TrainedFilmSite;

constexpr char kSite[] = "films.example";

/// (subject, predicate, object) of every triple, in order.
std::vector<std::string> Facts(const std::vector<Extraction>& triples) {
  std::vector<std::string> facts;
  for (const Extraction& triple : triples) {
    facts.push_back(triple.subject + " | " + std::to_string(triple.predicate) +
                    " | " + triple.object);
  }
  return facts;
}

TEST(ShardedServiceTest, SameTemplatePageOfAnotherFilmIsExtractedNotCached) {
  // Pages 0 and 7 share the site template and differ only in the film
  // title, which is a fact the model extracts: page 7 must never be
  // answered with page 0's cached triples.
  TrainedFilmSite site;
  const std::string root =
      ::testing::TempDir() + "/sharded_same_template_page";
  std::filesystem::remove_all(root);
  ShardedServiceConfig config;
  config.registry.root_dir = root;
  ShardedExtractionService service(site.kb.kb.ontology(), config);
  ASSERT_TRUE(service.Publish(kSite, *site.model).ok());
  ASSERT_TRUE(service.Start().ok());

  const auto submit = [&](int variant) {
    ServeRequest request;
    request.site = kSite;
    request.html = TrainedFilmSite::UnseenPageHtml(variant);
    return service.Submit(std::move(request)).get();
  };
  const ServeResult first = submit(0);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  const ServeResult second = submit(7);
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_FALSE(second.diagnostics.near_dup_hit);

  DomDocument page7 = ParseOrDie(TrainedFilmSite::UnseenPageHtml(7));
  const FeatureExtractor featurizer = MakeFeaturizer(*site.model);
  const std::vector<Extraction> direct =
      ExtractFromPages({&page7}, {0}, site.model.get(), featurizer, {});
  ASSERT_FALSE(direct.empty());
  EXPECT_EQ(Facts(second.triples), Facts(direct));
  // The two pages really have different facts: a cached answer for page
  // 0 would be wrong for page 7.
  EXPECT_NE(Facts(first.triples), Facts(direct));

  // A byte-identical resend of page 7 is the case the cache serves.
  const ServeResult resend = submit(7);
  EXPECT_TRUE(resend.diagnostics.near_dup_hit);
  EXPECT_EQ(Facts(resend.triples), Facts(direct));
  service.Stop();
}

}  // namespace
}  // namespace ceres::serve
