#ifndef CERES_UTIL_ARENA_H_
#define CERES_UTIL_ARENA_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace ceres {
namespace util {

/// Bump allocator for the character data of one parsed document.
///
/// Append() copies bytes into chunked storage and returns a view into it.
/// Chunks are never resized or freed while the arena lives, so returned
/// views stay valid until the arena is destroyed (they move with the arena:
/// moving a TextArena moves chunk ownership, not the bytes). One DomDocument
/// owns one TextArena; node text and attribute values are views into it,
/// which turns a parsed page into a handful of contiguous buffers plus a
/// flat node array instead of thousands of individual heap strings.
///
/// ExtendTail() supports the parser's interleaved text accumulation
/// (`<p>a<b/>b</p>` touches the p-node's text twice): when the span being
/// grown is the most recent allocation it is extended in place, otherwise
/// the merged bytes are re-appended. Not thread-safe — a document is parsed
/// by exactly one thread.
class TextArena {
 public:
  TextArena() = default;
  TextArena(TextArena&&) = default;
  TextArena& operator=(TextArena&&) = default;
  TextArena(const TextArena&) = delete;
  TextArena& operator=(const TextArena&) = delete;

  /// Copies `s` into the arena and returns a stable view of the copy.
  std::string_view Append(std::string_view s) {
    char* dst = Allocate(s.size());
    if (!s.empty()) std::memcpy(dst, s.data(), s.size());
    return std::string_view(dst, s.size());
  }

  /// Returns a view over `head` + `sep` + `tail` stored in the arena.
  /// If `head` is the arena's most recent allocation the new bytes are
  /// bump-extended in place (no copy of `head`); otherwise all three parts
  /// are appended fresh. `head` must be a view previously returned by this
  /// arena (or empty).
  std::string_view ExtendTail(std::string_view head, std::string_view sep,
                              std::string_view tail) {
    if (head.empty()) return Append(tail);
    const size_t extra = sep.size() + tail.size();
    char* dst = nullptr;
    if (head.data() + head.size() == chunk_ptr_ && chunk_left_ >= extra) {
      dst = chunk_ptr_ - head.size();
      Allocate(extra);
    } else {
      dst = Allocate(head.size() + extra);
      std::memcpy(dst, head.data(), head.size());
    }
    // One write path for both cases: GCC 12 under -fsanitize=undefined
    // reports a false -Warray-bounds on separate copies in the in-place
    // branch. Empty parts are skipped because a default string_view's
    // data() is null, and memcpy from null is undefined even for 0 bytes.
    char* out = dst + head.size();
    if (!sep.empty()) std::memcpy(out, sep.data(), sep.size());
    if (!tail.empty()) std::memcpy(out + sep.size(), tail.data(), tail.size());
    return std::string_view(dst, head.size() + extra);
  }

  /// Bytes handed out (live payload; re-appended ExtendTail heads count
  /// twice — the abandoned prefix is arena garbage until the document dies).
  size_t bytes_used() const { return bytes_used_; }

  /// Total bytes reserved across chunks.
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  static constexpr size_t kMinChunk = 4 << 10;

  char* Allocate(size_t n) {
    if (chunk_left_ < n) Grow(n);
    char* out = chunk_ptr_;
    chunk_ptr_ += n;
    chunk_left_ -= n;
    bytes_used_ += n;
    return out;
  }

  void Grow(size_t min_bytes) {
    // Double the chunk size each time so a document needs O(log size)
    // allocations regardless of length.
    size_t want = bytes_reserved_ == 0 ? kMinChunk : bytes_reserved_;
    if (want < min_bytes) want = min_bytes;
    chunks_.push_back(std::make_unique<char[]>(want));
    chunk_ptr_ = chunks_.back().get();
    chunk_left_ = want;
    bytes_reserved_ += want;
  }

  std::vector<std::unique_ptr<char[]>> chunks_;
  char* chunk_ptr_ = nullptr;
  size_t chunk_left_ = 0;
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
};

}  // namespace util
}  // namespace ceres

#endif  // CERES_UTIL_ARENA_H_
