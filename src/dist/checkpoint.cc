#include "dist/checkpoint.h"

#include <dirent.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/atomic_file.h"
#include "util/string_util.h"

namespace ceres::dist {

namespace {

constexpr std::string_view kCheckpointPrefix = "shard_";
constexpr std::string_view kCheckpointSuffix = ".ckpt";

}  // namespace

std::string ShardCheckpointPath(std::string_view dir, int32_t shard) {
  return StrCat(dir, "/", kCheckpointPrefix, shard, kCheckpointSuffix);
}

Status SaveShardCheckpoint(std::string_view dir, const ShardResult& result,
                           int64_t* bytes_written) {
  const std::string bytes =
      EncodeFrame(FrameType::kResult, EncodeShardResult(result));
  CERES_RETURN_IF_ERROR(
      WriteFileAtomically(ShardCheckpointPath(dir, result.shard), bytes));
  if (bytes_written != nullptr) {
    *bytes_written = static_cast<int64_t>(bytes.size());
  }
  return Status::Ok();
}

Result<ShardResult> LoadShardCheckpoint(std::string_view dir, int32_t shard) {
  const std::string path = ShardCheckpointPath(dir, shard);
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound(StrCat("no checkpoint at ", path));
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string bytes = contents.str();

  FrameBuffer buffer;
  buffer.Append(bytes.data(), bytes.size());
  Frame frame;
  Status decoded = buffer.Next(&frame);
  if (decoded.code() == StatusCode::kNotFound) {
    // "Need more bytes" is fine on a live stream, but the whole file is in
    // hand here: an incomplete frame means the checkpoint was truncated.
    decoded = Status::Internal(
        StrCat("truncated after ", bytes.size(), " byte(s)"));
  }
  CERES_RETURN_IF_ERROR(PrependContext(std::move(decoded),
                                       StrCat("checkpoint ", path)));
  if (buffer.pending_bytes() != 0) {
    return Status::Internal(
        StrCat("checkpoint ", path, ": trailing bytes after frame"));
  }
  if (frame.type != FrameType::kResult) {
    return Status::Internal(StrCat("checkpoint ", path, ": unexpected ",
                                   FrameTypeName(frame.type), " frame"));
  }
  CERES_ASSIGN_OR_RETURN(ShardResult result, DecodeShardResult(frame.payload),
                         StrCat("checkpoint ", path));
  if (result.shard != shard) {
    return Status::Internal(StrCat("checkpoint ", path, ": holds shard ",
                                   result.shard, ", expected ", shard));
  }
  return result;
}

std::vector<int32_t> ListShardCheckpoints(std::string_view dir) {
  std::vector<int32_t> shards;
  DIR* d = ::opendir(std::string(dir).c_str());
  if (d == nullptr) return shards;
  while (struct dirent* entry = ::readdir(d)) {
    std::string_view name = entry->d_name;
    if (name.size() <= kCheckpointPrefix.size() + kCheckpointSuffix.size() ||
        name.substr(0, kCheckpointPrefix.size()) != kCheckpointPrefix ||
        name.substr(name.size() - kCheckpointSuffix.size()) !=
            kCheckpointSuffix) {
      continue;
    }
    const std::string_view digits = name.substr(
        kCheckpointPrefix.size(),
        name.size() - kCheckpointPrefix.size() - kCheckpointSuffix.size());
    int32_t shard = 0;
    bool numeric = !digits.empty();
    for (char c : digits) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      shard = shard * 10 + (c - '0');
    }
    if (numeric) shards.push_back(shard);
  }
  ::closedir(d);
  std::sort(shards.begin(), shards.end());
  return shards;
}

Status CorruptShardCheckpoint(std::string_view dir, int32_t shard) {
  const std::string path = ShardCheckpointPath(dir, shard);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::NotFound(StrCat("no checkpoint at ", path));
    std::ostringstream contents;
    contents << in.rdbuf();
    bytes = contents.str();
  }
  if (bytes.empty()) return Status::Ok();  // already maximally corrupt
  // Flip bytes in the middle of the payload: the header stays plausible,
  // so only the checksum catches it — the realistic failure mode.
  const size_t mid = bytes.size() / 2;
  bytes[mid] = static_cast<char>(~bytes[mid]);
  if (mid + 1 < bytes.size()) {
    bytes[mid + 1] = static_cast<char>(bytes[mid + 1] ^ 0x5A);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal(StrCat("cannot rewrite ", path));
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::Internal(StrCat("short rewrite of ", path));
  return Status::Ok();
}

}  // namespace ceres::dist
