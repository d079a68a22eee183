#ifndef CERES_UTIL_ATOMIC_FILE_H_
#define CERES_UTIL_ATOMIC_FILE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace ceres {

/// Replaces `path` with `bytes` so that readers only ever see the old file
/// or the complete new one. The bytes go to a temp file of a name no other
/// writer uses, in `path`'s directory, which is then renamed over `path`;
/// on any failure the temp file is removed. Two writers of one path never
/// share a temp file: the last rename wins and each one's file is whole.
///
/// No fsync: the rename is atomic against concurrent readers, not durable
/// across a power loss.
///
/// Fails with `open_error` when the temp file cannot be created (a missing
/// or unwritable directory) and with kInternal when the write or the
/// rename fails.
Status WriteFileAtomically(const std::string& path, std::string_view bytes,
                           StatusCode open_error = StatusCode::kInternal);

}  // namespace ceres

#endif  // CERES_UTIL_ATOMIC_FILE_H_
