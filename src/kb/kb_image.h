#ifndef CERES_KB_KB_IMAGE_H_
#define CERES_KB_KB_IMAGE_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/mmap_file.h"
#include "util/status.h"

namespace ceres {

// ---------------------------------------------------------------------------
// The frozen-KB image format: one flat file holding the post-Freeze() CSR
// arrays, designed to be mmap'd read-only and queried in place.
//
//   +--------------------------------------------------------------+
//   | KbImageHeader (magic, version, checksums, section table)     |
//   +--------------------------------------------------------------+
//   | sections, each 8-byte aligned, in KbImageSectionId order:    |
//   |   types            KbTypeRecord[num_types]                   |
//   |   predicates       KbPredicateRecord[num_predicates]         |
//   |   entities         KbEntityRecord[num_entities]              |
//   |   alias_refs       KbStringRef[total_aliases]                |
//   |   triples          Triple[num_triples]  (sorted s,p,o)       |
//   |   subject_offsets  uint64[num_entities + 1]                  |
//   |   object_offsets   uint64[num_entities + 1]                  |
//   |   objects          int64[] (per-subject sorted unique)       |
//   |   name_keys        KbNameKey[] (sorted by key bytes)         |
//   |   name_ids         int64[] (per-key match lists)             |
//   |   object_counts    KbObjectStringCount[] (sorted by key)     |
//   |   strings          raw UTF-8 blob (all KbStringRefs point in)|
//   +--------------------------------------------------------------+
//
// Every record is fixed-size, trivially copyable, and 8-byte aligned, so a
// mapped section can be reinterpreted as a typed span directly (UBSan-clean
// alignment). Strings are referenced by (offset, length) into the strings
// section — no pointers, no relocation. Integers are stored in native byte
// order; images are a same-architecture serving format, not an interchange
// format (the text KB of kb_io.h remains the portable one).
// ---------------------------------------------------------------------------

inline constexpr char kKbImageMagic[8] = {'C', 'E', 'R', 'E',
                                          'S', 'K', 'B', '1'};
inline constexpr uint32_t kKbImageVersion = 1;

/// A string stored out-of-line in the strings section.
struct KbStringRef {
  uint64_t offset = 0;
  uint64_t length = 0;
};
static_assert(sizeof(KbStringRef) == 16);

/// One ontology entity type (EntityTypeDecl, serialized).
struct KbTypeRecord {
  KbStringRef name;
  uint32_t is_literal = 0;
  uint32_t pad = 0;
};
static_assert(sizeof(KbTypeRecord) == 24);

/// One ontology predicate (PredicateDecl, serialized).
struct KbPredicateRecord {
  KbStringRef name;
  int32_t subject_type = -1;
  int32_t object_type = -1;
  uint32_t multi_valued = 0;
  uint32_t pad = 0;
};
static_assert(sizeof(KbPredicateRecord) == 32);

/// One KB entity. Aliases are the alias_refs rows [alias_begin, alias_end).
struct KbEntityRecord {
  KbStringRef name;
  uint64_t alias_begin = 0;
  uint64_t alias_end = 0;
  int32_t type = -1;
  int32_t pad = 0;
};
static_assert(sizeof(KbEntityRecord) == 40);

/// One normalized surface key of the name index; its match list (entity
/// ids in registration order) is name_ids rows [ids_begin, ids_end). The
/// name_keys section is sorted by key bytes for binary-search lookup.
struct KbNameKey {
  KbStringRef key;
  uint64_t ids_begin = 0;
  uint64_t ids_end = 0;
};
static_assert(sizeof(KbNameKey) == 32);

/// One normalized object string with its triple count (the §3.1.1
/// common-string statistic), sorted by key bytes.
struct KbObjectStringCount {
  KbStringRef key;
  int64_t count = 0;
};
static_assert(sizeof(KbObjectStringCount) == 24);

enum KbImageSectionId : uint32_t {
  kKbSectionTypes = 0,
  kKbSectionPredicates,
  kKbSectionEntities,
  kKbSectionAliasRefs,
  kKbSectionTriples,
  kKbSectionSubjectOffsets,
  kKbSectionObjectOffsets,
  kKbSectionObjects,
  kKbSectionNameKeys,
  kKbSectionNameIds,
  kKbSectionObjectStringCounts,
  kKbSectionStrings,
  kKbImageSectionCount,
};

struct KbImageSection {
  uint64_t offset = 0;
  uint64_t bytes = 0;
};
static_assert(sizeof(KbImageSection) == 16);

struct KbImageHeader {
  char magic[8] = {};
  uint32_t version = 0;
  uint32_t section_count = 0;
  uint64_t file_bytes = 0;
  /// FNV-1a over [sizeof(KbImageHeader), file_bytes) — everything after
  /// the header, padding included. Verified only on request (it is an
  /// O(n) pass; the structural checks below stay O(1)).
  uint64_t payload_checksum = 0;
  /// FNV-1a over this header with header_checksum itself zeroed. Always
  /// verified on open.
  uint64_t header_checksum = 0;
  KbImageSection sections[kKbImageSectionCount] = {};
};
static_assert(std::is_trivially_copyable_v<KbImageHeader>);
static_assert(sizeof(KbImageHeader) % 8 == 0);

/// Accumulates raw section contents and serializes them into one image
/// buffer (header + aligned sections + checksums). The caller appends
/// typed records; the builder owns layout and integrity.
class KbImageBuilder {
 public:
  /// Appends one fixed-size record to `section`.
  template <typename T>
  void Append(KbImageSectionId section, const T& record) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= 8);
    const char* bytes = reinterpret_cast<const char*>(&record);
    sections_[section].insert(sections_[section].end(), bytes,
                              bytes + sizeof(T));
  }

  /// Appends `text` to the strings section and returns its ref.
  KbStringRef AddString(std::string_view text);

  /// Lays out the final image: header, then sections in id order, each
  /// zero-padded to 8-byte alignment, with both checksums filled in.
  std::vector<char> Serialize() const;

 private:
  std::array<std::vector<char>, kKbImageSectionCount> sections_;
};

/// A validated view over image bytes — either an owned buffer (freshly
/// frozen KB) or a read-only mapping (out-of-core KB). Move-only; spans
/// and string_views handed out stay valid for the KbImage's lifetime.
class KbImage {
 public:
  KbImage() = default;
  KbImage(KbImage&&) = default;
  KbImage& operator=(KbImage&&) = default;
  KbImage(const KbImage&) = delete;
  KbImage& operator=(const KbImage&) = delete;

  /// Wraps an owned buffer (as produced by KbImageBuilder::Serialize).
  static Result<KbImage> FromBuffer(std::vector<char> buffer,
                                    bool verify_payload = false);

  /// Maps `path` read-only; O(1) in the image size unless `verify_payload`
  /// (which runs the full-payload checksum). Corruption (bad magic, wrong
  /// version, truncation, checksum mismatch, malformed section table)
  /// yields a typed kDataLoss status, never a crash.
  static Result<KbImage> Map(const std::string& path,
                             bool verify_payload = false);

  bool valid() const { return data_ != nullptr; }
  const char* data() const { return data_; }
  size_t size() const { return size_; }
  const KbImageHeader& header() const {
    return *reinterpret_cast<const KbImageHeader*>(data_);
  }

  /// The records of `section` as a typed span. The section byte count must
  /// be an exact multiple of sizeof(T) (validated by the typed open path).
  template <typename T>
  std::span<const T> Section(KbImageSectionId section) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const KbImageSection& s = header().sections[section];
    return std::span<const T>(
        reinterpret_cast<const T*>(data_ + s.offset),
        static_cast<size_t>(s.bytes) / sizeof(T));
  }

  /// The string `ref` points at. `ref` must lie inside the strings
  /// section (guaranteed for refs written by KbImageBuilder; Validate
  /// checks the section table, and VerifyRefs checks every stored ref).
  std::string_view View(KbStringRef ref) const {
    const KbImageSection& s = header().sections[kKbSectionStrings];
    return std::string_view(data_ + s.offset + ref.offset,
                            static_cast<size_t>(ref.length));
  }

  /// Deep check that every stored KbStringRef and index range lies in
  /// bounds. O(n); used by tests and `ceres_kb_build --verify`.
  Status VerifyRefs() const;

 private:
  Status Validate(bool verify_payload) const;

  std::vector<char> owned_;
  MappedFile mapped_;
  const char* data_ = nullptr;
  size_t size_ = 0;
};

/// Writes `image` (a serialized buffer or a KbImage's bytes) to `path`
/// through WriteFileAtomically: concurrent writers of one path never share
/// a temp file, and readers never see a partial image.
Status WriteKbImageFile(std::span<const char> image, const std::string& path);

}  // namespace ceres

#endif  // CERES_KB_KB_IMAGE_H_
