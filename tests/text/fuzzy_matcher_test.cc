#include "text/fuzzy_matcher.h"

#include <gtest/gtest.h>

namespace ceres {
namespace {

TEST(StripTrailingYearTest, ViewVariantAgreesWithCopyingVariant) {
  for (const char* input :
       {"selma 2014", "selma", "2014", "top 100", "war 19999"}) {
    EXPECT_EQ(StripTrailingYearView(input), StripTrailingYear(input))
        << input;
  }
}

TEST(StripTrailingYearTest, Behaviour) {
  EXPECT_EQ(StripTrailingYear("selma 2014"), "selma");
  EXPECT_EQ(StripTrailingYear("selma"), "selma");
  EXPECT_EQ(StripTrailingYear("2014"), "2014");         // Nothing would remain.
  EXPECT_EQ(StripTrailingYear("top 100"), "top 100");    // Not 4 digits.
  EXPECT_EQ(StripTrailingYear("war 19999"), "war 19999");
}

}  // namespace
}  // namespace ceres
