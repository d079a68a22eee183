#include "util/atomic_file.h"

#include <errno.h>
#include <string.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>

#include "util/string_util.h"

namespace ceres {

namespace {

Status ErrnoStatus(StatusCode code, std::string_view what) {
  return Status(code, StrCat(what, ": ", strerror(errno)));
}

}  // namespace

Status WriteFileAtomically(const std::string& path, std::string_view bytes,
                           StatusCode open_error) {
  // The pid keeps other processes' temp names apart and the counter this
  // process's threads; exclusive create ("x") turns a leftover of a dead
  // process with the same pid into a retry, never a shared file. Not
  // mkstemp: it creates the file 0600, so the renamed file would lose the
  // mode the umask gives every other file the program writes.
  static std::atomic<uint64_t> counter{0};
  std::string tmp;
  std::FILE* file = nullptr;
  for (int attempt = 0; file == nullptr; ++attempt) {
    tmp = StrCat(path, ".tmp.", ::getpid(), ".", counter.fetch_add(1));
    file = std::fopen(tmp.c_str(), "wbx");
    if (file == nullptr && (errno != EEXIST || attempt == 100)) {
      return ErrnoStatus(open_error, StrCat("cannot create ", tmp));
    }
  }
  Status status;
  // An empty view's data() may be null, which fwrite must not be given.
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size()) {
    status = ErrnoStatus(StatusCode::kInternal, StrCat("write to ", tmp));
  }
  if (std::fclose(file) != 0 && status.ok()) {
    status = ErrnoStatus(StatusCode::kInternal, StrCat("close ", tmp));
  }
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = ErrnoStatus(StatusCode::kInternal,
                         StrCat("rename ", tmp, " -> ", path));
  }
  if (!status.ok()) (void)std::remove(tmp.c_str());
  return status;
}

}  // namespace ceres
