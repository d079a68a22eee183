#ifndef CERES_UTIL_STRING_UTIL_H_
#define CERES_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace ceres {

/// FNV-1a 64-bit hash. Unlike std::hash, the value is pinned by this
/// definition, so it is stable across processes and runs — required wherever
/// a hash is persisted or must agree between coordinator and worker
/// processes (shard assignment by site hash, frame/checkpoint checksums).
constexpr uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// The shard a site belongs to: Fnv1a64(site) % num_shards, and 0 for
/// num_shards <= 0. The offline distributed runner (checkpoint layout) and
/// the serving tier (site -> shard routing) both partition by it.
constexpr int32_t ShardOfSite(std::string_view site, int32_t num_shards) {
  if (num_shards <= 0) return 0;
  return static_cast<int32_t>(Fnv1a64(site) %
                              static_cast<uint64_t>(num_shards));
}

/// Splits `input` on the single character `sep`. Empty fields are kept, so
/// Split("a//b", '/') yields {"a", "", "b"}; Split("", '/') yields {""}.
std::vector<std::string> Split(std::string_view input, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Returns `input` with leading and trailing ASCII whitespace removed.
std::string_view StripWhitespace(std::string_view input);

/// True if `text` starts with / ends with the given prefix or suffix.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Concatenates streamable arguments into a string; the library's
/// no-format-library substitute for absl::StrCat.
template <typename... Args>
std::string StrCat(const Args&... args) {
  if constexpr (sizeof...(args) == 0) {
    return std::string();
  } else {
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
  }
}

}  // namespace ceres

#endif  // CERES_UTIL_STRING_UTIL_H_
