// RunInChild: one int64_t (or a typed error) back from a forked child.

#include "dist/run_in_child.h"

#include <unistd.h>

#include <gtest/gtest.h>

namespace ceres::dist {
namespace {

TEST(RunInChildTest, ReturnsTheChildsValue) {
  Result<int64_t> value =
      RunInChild([]() -> Result<int64_t> { return int64_t{-1} << 40; });
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, int64_t{-1} << 40);
}

TEST(RunInChildTest, RunsInASeparateProcess) {
  const pid_t parent = ::getpid();
  int64_t touched = 7;
  Result<int64_t> child_pid = RunInChild([&touched]() -> Result<int64_t> {
    touched = 99;  // Lands in the child's copy only.
    return static_cast<int64_t>(::getpid());
  });
  ASSERT_TRUE(child_pid.ok()) << child_pid.status().ToString();
  EXPECT_NE(*child_pid, static_cast<int64_t>(parent));
  EXPECT_EQ(touched, 7);
}

TEST(RunInChildTest, ChildErrorKeepsItsCodeAndMessage) {
  Result<int64_t> value = RunInChild([]() -> Result<int64_t> {
    return Status::NotFound("no such kb");
  });
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(value.status().message(), "no such kb");
}

TEST(RunInChildTest, ChildThatDiesWithoutReportingIsInternal) {
  Result<int64_t> value = RunInChild([]() -> Result<int64_t> {
    ::_exit(3);
  });
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace ceres::dist
