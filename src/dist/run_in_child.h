#ifndef CERES_DIST_RUN_IN_CHILD_H_
#define CERES_DIST_RUN_IN_CHILD_H_

#include <cstdint>
#include <functional>

#include "util/status.h"

namespace ceres::dist {

/// Runs `fn` in a forked child process and returns the one int64_t it
/// produced. The child inherits the caller's address space copy-on-write,
/// so a probe of per-process cost (say, the resident set a KB open adds)
/// is measured without disturbing the caller.
///
/// The result travels back as one checksummed wire frame (dist/wire.h). An
/// error returned by `fn` comes back with its own code and message; a
/// failed fork or pipe, or a child that dies before reporting, is
/// kInternal. The child always ends with _exit, so it never runs the
/// caller's atexit handlers or flushes its stdio buffers. Fork only from a
/// single-threaded caller: the child has no copies of the other threads.
Result<int64_t> RunInChild(const std::function<Result<int64_t>()>& fn);

}  // namespace ceres::dist

#endif  // CERES_DIST_RUN_IN_CHILD_H_
