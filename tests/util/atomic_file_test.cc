#include "util/atomic_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace ceres {
namespace {

namespace fs = std::filesystem;

std::string ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

fs::path FreshDir() {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      (std::string("atomic_file_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(WriteFileAtomicallyTest, ReplacesTheFileAndLeavesNoTempBehind) {
  const fs::path dir = FreshDir();
  const fs::path path = dir / "out.bin";
  ASSERT_TRUE(WriteFileAtomically(path.string(), "first").ok());
  ASSERT_TRUE(WriteFileAtomically(path.string(), std::string("a\0b", 3)).ok());
  EXPECT_EQ(ReadAll(path), std::string("a\0b", 3));
  EXPECT_EQ(std::distance(fs::directory_iterator(dir), {}), 1);
}

TEST(WriteFileAtomicallyTest, MissingDirectoryFailsWithTheCallersCode) {
  const fs::path path = FreshDir() / "absent" / "out.bin";
  EXPECT_EQ(WriteFileAtomically(path.string(), "x").code(),
            StatusCode::kInternal);
  EXPECT_EQ(
      WriteFileAtomically(path.string(), "x", StatusCode::kNotFound).code(),
      StatusCode::kNotFound);
  EXPECT_FALSE(fs::exists(path.parent_path()));
}

TEST(WriteFileAtomicallyTest, ConcurrentWritersOfOnePathLeaveOneWholeFile) {
  // Each writer has its own temp file, so the last rename wins whole; a
  // shared temp name would let one writer truncate or rename away
  // another's bytes.
  const fs::path dir = FreshDir();
  const fs::path path = dir / "shared.bin";
  constexpr int kWriters = 4;
  constexpr int kWrites = 25;
  std::vector<std::string> contents;
  for (int w = 0; w < kWriters; ++w) {
    contents.push_back(std::string(4096 * (w + 1), static_cast<char>('a' + w)));
  }
  std::vector<std::thread> writers;
  std::vector<int> failures(kWriters, 0);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kWrites; ++i) {
        if (!WriteFileAtomically(path.string(), contents[w]).ok()) {
          ++failures[w];
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  for (int w = 0; w < kWriters; ++w) EXPECT_EQ(failures[w], 0);
  const std::string final_bytes = ReadAll(path);
  EXPECT_NE(std::find(contents.begin(), contents.end(), final_bytes),
            contents.end());
  EXPECT_EQ(std::distance(fs::directory_iterator(dir), {}), 1);
}

}  // namespace
}  // namespace ceres
