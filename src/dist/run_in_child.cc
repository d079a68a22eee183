#include "dist/run_in_child.h"

#include <errno.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "dist/wire.h"
#include "util/string_util.h"

namespace ceres::dist {

namespace {

// Child side: encode `value` as a kResult frame (the i64) or a
// kWorkerError frame (code + message) and write it to `fd`.
Status SendResult(int fd, const Result<int64_t>& value) {
  WireWriter writer;
  if (value.ok()) {
    writer.PutI64(*value);
    return WriteFrame(fd, FrameType::kResult, writer.bytes());
  }
  writer.PutI32(static_cast<int32_t>(value.status().code()));
  writer.PutStr(value.status().message());
  return WriteFrame(fd, FrameType::kWorkerError, writer.bytes());
}

Result<int64_t> DecodeResult(const Frame& frame) {
  WireReader reader(frame.payload);
  if (frame.type == FrameType::kResult) {
    int64_t value = 0;
    CERES_RETURN_IF_ERROR(reader.I64(&value));
    return value;
  }
  if (frame.type == FrameType::kWorkerError) {
    int32_t code = 0;
    std::string message;
    CERES_RETURN_IF_ERROR(reader.I32(&code));
    CERES_RETURN_IF_ERROR(reader.Str(&message));
    return Status(static_cast<StatusCode>(code), std::move(message));
  }
  return Status::Internal(
      StrCat("unexpected frame from child: ", FrameTypeName(frame.type)));
}

}  // namespace

Result<int64_t> RunInChild(const std::function<Result<int64_t>()>& fn) {
  int fds[2];
  if (::pipe(fds) != 0) {
    return Status::Internal(StrCat("pipe failed: ", std::strerror(errno)));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int fork_errno = errno;
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::Internal(
        StrCat("fork failed: ", std::strerror(fork_errno)));
  }
  if (pid == 0) {
    ::close(fds[0]);
    const Status sent = SendResult(fds[1], fn());
    ::close(fds[1]);
    ::_exit(sent.ok() ? 0 : 1);
  }
  ::close(fds[1]);
  Result<Frame> frame = ReadFrame(fds[0]);
  ::close(fds[0]);
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  if (!frame.ok()) {
    return Status::Internal(
        StrCat("child exited without a result (wait status ", wstatus,
               "): ", frame.status().message()));
  }
  return DecodeResult(*frame);
}

}  // namespace ceres::dist
