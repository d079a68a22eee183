#include "util/string_util.h"

#include <gtest/gtest.h>

namespace ceres {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a/b/c", '/'),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a//b", '/'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("/a/", '/'), (std::vector<std::string>{"", "a", ""}));
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  EXPECT_EQ(Split("", '/'), (std::vector<std::string>{""}));
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(SplitJoinTest, RoundTrips) {
  const std::string original = "x/y//z";
  EXPECT_EQ(Join(Split(original, '/'), "/"), original);
}

TEST(StripWhitespaceTest, StripsBothEnds) {
  EXPECT_EQ(StripWhitespace("  hello \t\n"), "hello");
  EXPECT_EQ(StripWhitespace("inner space kept"), "inner space kept");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("film.hasGenre", "film."));
  EXPECT_FALSE(StartsWith("film", "film."));
  EXPECT_TRUE(EndsWith("index.html", ".html"));
  EXPECT_FALSE(EndsWith("html", ".html"));
}

TEST(StrCatTest, ConcatenatesMixedTypes) {
  EXPECT_EQ(StrCat("page-", 12, "/", 3.5), "page-12/3.5");
  EXPECT_EQ(StrCat(), "");
}

TEST(ShardOfSiteTest, StableAndInRange) {
  // Stability across calls and runs is load-bearing (checkpoint layout);
  // pin an actual value so an accidental hash change cannot slip through.
  EXPECT_EQ(ShardOfSite("imdb.example", 1), 0);
  EXPECT_EQ(ShardOfSite("imdb.example", 1000),
            static_cast<int32_t>(Fnv1a64("imdb.example") % 1000));
  EXPECT_EQ(ShardOfSite("imdb.example", 0), 0);
  EXPECT_EQ(ShardOfSite("imdb.example", -3), 0);
  for (int32_t shards : {1, 2, 7, 64}) {
    const int32_t got = ShardOfSite("any.example", shards);
    EXPECT_GE(got, 0);
    EXPECT_LT(got, shards);
  }
}

}  // namespace
}  // namespace ceres
