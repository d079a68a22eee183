#include "kb/kb_image.h"

#include <cstring>
#include <utility>

#include "util/atomic_file.h"
#include "util/string_util.h"

namespace ceres {

namespace {

/// Section payloads are padded to 8-byte boundaries so every record array
/// starts aligned in the file (mmap bases are page-aligned).
constexpr size_t kSectionAlign = 8;

size_t AlignUp(size_t n) {
  return (n + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

uint64_t ChecksumBytes(const char* data, size_t size) {
  return Fnv1a64(std::string_view(data, size));
}

/// The header checksum covers the header with its own field zeroed.
uint64_t HeaderChecksum(KbImageHeader header) {
  header.header_checksum = 0;
  return ChecksumBytes(reinterpret_cast<const char*>(&header),
                       sizeof(header));
}

Status Corrupt(std::string msg) { return Status::DataLoss(std::move(msg)); }

}  // namespace

KbStringRef KbImageBuilder::AddString(std::string_view text) {
  std::vector<char>& blob = sections_[kKbSectionStrings];
  KbStringRef ref;
  ref.offset = blob.size();
  ref.length = text.size();
  blob.insert(blob.end(), text.begin(), text.end());
  return ref;
}

std::vector<char> KbImageBuilder::Serialize() const {
  KbImageHeader header;
  std::memcpy(header.magic, kKbImageMagic, sizeof(header.magic));
  header.version = kKbImageVersion;
  header.section_count = kKbImageSectionCount;

  size_t cursor = sizeof(KbImageHeader);
  for (uint32_t i = 0; i < kKbImageSectionCount; ++i) {
    header.sections[i].offset = cursor;
    header.sections[i].bytes = sections_[i].size();
    cursor = AlignUp(cursor + sections_[i].size());
  }
  header.file_bytes = cursor;

  std::vector<char> image(cursor, '\0');
  for (uint32_t i = 0; i < kKbImageSectionCount; ++i) {
    // An empty section's data() may be null, and memcpy from null is
    // undefined even for zero bytes.
    if (sections_[i].empty()) continue;
    std::memcpy(image.data() + header.sections[i].offset,
                sections_[i].data(), sections_[i].size());
  }
  header.payload_checksum =
      ChecksumBytes(image.data() + sizeof(KbImageHeader),
                    image.size() - sizeof(KbImageHeader));
  header.header_checksum = HeaderChecksum(header);
  std::memcpy(image.data(), &header, sizeof(header));
  return image;
}

Status KbImage::Validate(bool verify_payload) const {
  if (size_ < sizeof(KbImageHeader)) {
    return Corrupt(StrCat("image too short for header: ", size_,
                          " bytes, need ", sizeof(KbImageHeader)));
  }
  // The header is read through memcpy-compatible struct access on the
  // mapped bytes; the mapping base is page-aligned so this is aligned.
  const KbImageHeader& header = this->header();
  if (std::memcmp(header.magic, kKbImageMagic, sizeof(header.magic)) != 0) {
    return Corrupt("bad magic: not a CERES KB image");
  }
  if (header.version != kKbImageVersion) {
    return Corrupt(StrCat("unsupported image version ", header.version,
                          " (expected ", kKbImageVersion, ")"));
  }
  if (header.section_count != kKbImageSectionCount) {
    return Corrupt(StrCat("section count ", header.section_count,
                          " != ", kKbImageSectionCount));
  }
  if (header.file_bytes != size_) {
    return Corrupt(StrCat("file is ", size_, " bytes but header says ",
                          header.file_bytes, " (truncated or padded)"));
  }
  if (HeaderChecksum(header) != header.header_checksum) {
    return Corrupt("header checksum mismatch");
  }
  uint64_t expected_offset = sizeof(KbImageHeader);
  for (uint32_t i = 0; i < kKbImageSectionCount; ++i) {
    const KbImageSection& s = header.sections[i];
    if (s.offset != expected_offset) {
      return Corrupt(StrCat("section ", i, " offset ", s.offset,
                            " != expected ", expected_offset));
    }
    if (s.offset % kSectionAlign != 0) {
      return Corrupt(StrCat("section ", i, " misaligned at ", s.offset));
    }
    if (s.offset + s.bytes > size_) {
      return Corrupt(StrCat("section ", i, " overruns file: offset ",
                            s.offset, " + ", s.bytes, " > ", size_));
    }
    expected_offset = AlignUp(s.offset + s.bytes);
  }
  if (expected_offset != size_) {
    return Corrupt(StrCat("trailing bytes after last section: ",
                          expected_offset, " != ", size_));
  }
  if (verify_payload) {
    const uint64_t checksum =
        ChecksumBytes(data_ + sizeof(KbImageHeader),
                      size_ - sizeof(KbImageHeader));
    if (checksum != header.payload_checksum) {
      return Corrupt("payload checksum mismatch (corrupt image)");
    }
  }
  return Status::Ok();
}

Status KbImage::VerifyRefs() const {
  const KbImageHeader& header = this->header();
  const uint64_t strings_bytes =
      header.sections[kKbSectionStrings].bytes;
  auto check_ref = [&](KbStringRef ref, const char* what) -> Status {
    if (ref.offset + ref.length > strings_bytes) {
      return Corrupt(StrCat(what, " string ref overruns blob: ",
                            ref.offset, " + ", ref.length, " > ",
                            strings_bytes));
    }
    return Status::Ok();
  };
  for (const KbTypeRecord& type : Section<KbTypeRecord>(kKbSectionTypes)) {
    CERES_RETURN_IF_ERROR(check_ref(type.name, "type"));
  }
  for (const KbPredicateRecord& predicate :
       Section<KbPredicateRecord>(kKbSectionPredicates)) {
    CERES_RETURN_IF_ERROR(check_ref(predicate.name, "predicate"));
  }
  const auto alias_refs = Section<KbStringRef>(kKbSectionAliasRefs);
  for (const KbEntityRecord& entity :
       Section<KbEntityRecord>(kKbSectionEntities)) {
    CERES_RETURN_IF_ERROR(check_ref(entity.name, "entity"));
    if (entity.alias_begin > entity.alias_end ||
        entity.alias_end > alias_refs.size()) {
      return Corrupt(StrCat("entity alias range [", entity.alias_begin,
                            ", ", entity.alias_end, ") overruns ",
                            alias_refs.size(), " alias refs"));
    }
  }
  for (const KbStringRef& alias : alias_refs) {
    CERES_RETURN_IF_ERROR(check_ref(alias, "alias"));
  }
  const auto name_ids = Section<int64_t>(kKbSectionNameIds);
  for (const KbNameKey& key : Section<KbNameKey>(kKbSectionNameKeys)) {
    CERES_RETURN_IF_ERROR(check_ref(key.key, "name key"));
    if (key.ids_begin > key.ids_end || key.ids_end > name_ids.size()) {
      return Corrupt(StrCat("name key id range [", key.ids_begin, ", ",
                            key.ids_end, ") overruns ", name_ids.size(),
                            " ids"));
    }
  }
  for (const KbObjectStringCount& count :
       Section<KbObjectStringCount>(kKbSectionObjectStringCounts)) {
    CERES_RETURN_IF_ERROR(check_ref(count.key, "object count"));
  }
  return Status::Ok();
}

Result<KbImage> KbImage::FromBuffer(std::vector<char> buffer,
                                    bool verify_payload) {
  KbImage image;
  image.owned_ = std::move(buffer);
  image.data_ = image.owned_.data();
  image.size_ = image.owned_.size();
  CERES_RETURN_IF_ERROR(image.Validate(verify_payload));
  return image;
}

Result<KbImage> KbImage::Map(const std::string& path, bool verify_payload) {
  CERES_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  KbImage image;
  image.mapped_ = std::move(file);
  image.data_ = image.mapped_.data();
  image.size_ = image.mapped_.size();
  CERES_RETURN_IF_ERROR(PrependContext(image.Validate(verify_payload),
                                       StrCat("kb image ", path)));
  return image;
}

Status WriteKbImageFile(std::span<const char> image,
                        const std::string& path) {
  return WriteFileAtomically(path, std::string_view(image.data(), image.size()));
}

}  // namespace ceres
