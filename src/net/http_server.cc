#include "net/http_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ceres::net {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             obs::MonotonicNow().time_since_epoch())
      .count();
}

Status ErrnoStatus(const char* what) {
  return Status::Internal(StrCat(what, ": ", strerror(errno)));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl(O_NONBLOCK)");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// The epoll poller.
// ---------------------------------------------------------------------------

struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  /// Peer fully gone (EPOLLHUP/EPOLLERR); the connection is unusable.
  bool hangup = false;
};

class EpollPoller {
 public:
  EpollPoller() = default;
  ~EpollPoller() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  EpollPoller(const EpollPoller&) = delete;
  EpollPoller& operator=(const EpollPoller&) = delete;

  Status Init() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return ErrnoStatus("epoll_create1");
    return Status::Ok();
  }

  Status AddFd(int fd, bool read, bool write) {
    epoll_event event = Event(fd, read, write);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) < 0) {
      return ErrnoStatus("epoll_ctl(ADD)");
    }
    return Status::Ok();
  }

  void UpdateFd(int fd, bool read, bool write) {
    epoll_event event = Event(fd, read, write);
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event);
  }

  void RemoveFd(int fd) {
    epoll_event unused = {};
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &unused);
  }

  /// Appends ready events to `events`; returns their number.
  Result<int> Wait(int timeout_ms, std::vector<PollEvent>* events) {
    epoll_event ready[64];
    const int n = ::epoll_wait(epoll_fd_, ready, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return 0;
      return ErrnoStatus("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      PollEvent event;
      event.fd = static_cast<int>(ready[i].data.fd);
      event.readable = (ready[i].events & EPOLLIN) != 0;
      event.writable = (ready[i].events & EPOLLOUT) != 0;
      event.hangup = (ready[i].events & (EPOLLHUP | EPOLLERR)) != 0;
      events->push_back(event);
    }
    return n;
  }

 private:
  static epoll_event Event(int fd, bool read, bool write) {
    epoll_event event = {};
    if (read) event.events |= EPOLLIN;
    if (write) event.events |= EPOLLOUT;
    event.data.fd = fd;
    return event;
  }

  int epoll_fd_ = -1;
};

Result<int> CreateListenSocket(const HttpServerConfig& config,
                               uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config.port);
  if (::inet_pton(AF_INET, config.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument(
        StrCat("bad bind address: ", config.bind_address));
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = ErrnoStatus("bind");
    ::close(fd);
    return status;
  }
  if (::listen(fd, config.listen_backlog) < 0) {
    Status status = ErrnoStatus("listen");
    ::close(fd);
    return status;
  }
  sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) <
      0) {
    Status status = ErrnoStatus("getsockname");
    ::close(fd);
    return status;
  }
  *bound_port = ntohs(bound.sin_port);
  Status nonblocking = SetNonBlocking(fd);
  if (!nonblocking.ok()) {
    ::close(fd);
    return nonblocking;
  }
  return fd;
}

/// Loop-side monotonic counters; stats() snapshots them. Written only by
/// the loop thread (and responses_dropped by the inbox), read anywhere.
struct StatsCells {
  std::atomic<int64_t> accepted{0};
  std::atomic<int64_t> rejected_at_capacity{0};
  std::atomic<int64_t> closed{0};
  std::atomic<int64_t> requests{0};
  std::atomic<int64_t> responses{0};
  std::atomic<int64_t> responses_dropped{0};
  std::atomic<int64_t> rate_limited{0};
  std::atomic<int64_t> parse_errors{0};
  std::atomic<int64_t> oversized{0};
  std::atomic<int64_t> idle_closed{0};
  std::atomic<int64_t> torn_closed{0};
  std::atomic<int64_t> drained{0};
};

}  // namespace

// ---------------------------------------------------------------------------
// Responder inbox: the only channel from handler threads back to the loop.
// ---------------------------------------------------------------------------

struct HttpServer::Responder::Inbox {
  CheckedMutex mu{"HttpServer.Inbox.mu"};
  std::vector<std::pair<uint64_t, HttpResponse>> ready CERES_GUARDED_BY(mu);
  /// Write end of the loop's self-pipe; -1 once the loop is gone.
  int wake_fd CERES_GUARDED_BY(mu) = -1;
  bool open CERES_GUARDED_BY(mu) = false;
  std::atomic<int64_t>* dropped = nullptr;  // points into StatsCells
};

void HttpServer::Responder::Send(HttpResponse response) const {
  if (inbox_ == nullptr) return;
  MutexLock lock(inbox_->mu);
  if (!inbox_->open) {
    if (inbox_->dropped != nullptr) {
      inbox_->dropped->fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  inbox_->ready.emplace_back(connection_id_, std::move(response));
  // One byte wakes the loop; a full pipe already implies a pending wake.
  char byte = 1;
  (void)!::write(inbox_->wake_fd, &byte, 1);
}

// ---------------------------------------------------------------------------
// The event loop.
// ---------------------------------------------------------------------------

struct HttpServer::Loop {
  struct Connection {
    explicit Connection(HttpLimits limits) : parser(limits) {}

    int fd = -1;
    uint64_t id = 0;
    std::string peer;  // dotted-quad peer address, the rate-limit key
    RequestParser parser;
    std::string out;       // encoded, not yet flushed response bytes
    size_t out_offset = 0;
    bool awaiting_handler = false;
    bool close_after_write = false;
    bool read_eof = false;
    bool want_read = true;
    bool want_write = false;
    bool keep_alive_current = true;
    int64_t last_activity_us = 0;
    int64_t dispatch_start_us = 0;
  };

  explicit Loop(HttpServer* server)
      : handler(server->handler_),
        config(server->config_),
        limiter(server->config_.rate_limit) {}

  ~Loop() {
    // Normal teardown happens in TearDown() (run by the loop thread); this
    // only releases fds when Init() failed before the thread started.
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_read_fd >= 0) ::close(wake_read_fd);
    if (wake_write_fd >= 0) ::close(wake_write_fd);
  }

  // --- shared with other threads ---
  std::shared_ptr<Responder::Inbox> inbox;
  std::atomic<bool> stop{false};
  std::atomic<bool> drain{false};
  StatsCells stats;
  CheckedMutex drain_mu{"HttpServer.drain_mu"};
  CondVar drain_cv;
  bool drain_done CERES_GUARDED_BY(drain_mu) = false;

  // --- loop-thread state ---
  Handler handler;
  const HttpServerConfig config;
  EpollPoller poller;
  RateLimiter limiter;
  int listen_fd = -1;
  int wake_read_fd = -1;
  int wake_write_fd = -1;
  uint64_t next_id = 1;
  std::unordered_map<uint64_t, Connection> connections;
  std::unordered_map<int, uint64_t> by_fd;
  bool drain_seen = false;
  int64_t drain_started_us = 0;

  // Cached obs instruments (process-default registry, created once).
  obs::Counter* requests_counter = nullptr;
  obs::Counter* responses_counter = nullptr;
  obs::Counter* rate_limited_counter = nullptr;
  obs::Counter* parse_error_counter = nullptr;
  obs::Histogram* request_us = nullptr;

  Status Init();
  void Serve();
  void TearDown();

  void SignalDrainDoneIfIdle();
  void AcceptReady();
  void HandleEvent(const PollEvent& event);
  void ReadReady(Connection* conn);
  void ApplyInbox();
  void ApplyResponse(uint64_t conn_id, HttpResponse response);
  void MaybeDispatch(Connection* conn);
  void EnqueueResponse(Connection* conn, const HttpResponse& response,
                       bool keep_alive);
  /// Returns false when the connection was closed by the flush.
  bool TryFlush(Connection* conn);
  void UpdateInterest(Connection* conn);
  void SweepTimeouts();
  void CloseConnection(uint64_t conn_id);
};

Status HttpServer::Loop::Init() {
  CERES_RETURN_IF_ERROR(poller.Init());

  uint16_t bound_port = 0;
  Result<int> listener = CreateListenSocket(config, &bound_port);
  if (!listener.ok()) return listener.status();
  listen_fd = *listener;

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) return ErrnoStatus("pipe");
  wake_read_fd = pipe_fds[0];
  wake_write_fd = pipe_fds[1];
  Status nonblocking = SetNonBlocking(wake_read_fd);
  if (!nonblocking.ok()) return nonblocking;
  nonblocking = SetNonBlocking(wake_write_fd);
  if (!nonblocking.ok()) return nonblocking;

  Status added = poller.AddFd(listen_fd, /*read=*/true, /*write=*/false);
  if (!added.ok()) return added;
  added = poller.AddFd(wake_read_fd, /*read=*/true, /*write=*/false);
  if (!added.ok()) return added;

  inbox = std::make_shared<Responder::Inbox>();
  {
    MutexLock lock(inbox->mu);
    inbox->wake_fd = wake_write_fd;
    inbox->open = true;
    inbox->dropped = &stats.responses_dropped;
  }

  auto& registry = obs::MetricsRegistry::Default();
  requests_counter = registry.GetCounter("ceres_net_requests_total");
  responses_counter = registry.GetCounter("ceres_net_responses_total");
  rate_limited_counter =
      registry.GetCounter("ceres_net_rate_limited_total");
  parse_error_counter = registry.GetCounter("ceres_net_parse_errors_total");
  request_us = registry.GetHistogram("ceres_net_request_us");
  return Status::Ok();
}

void HttpServer::Loop::SignalDrainDoneIfIdle() {
  if (!drain.load(std::memory_order_acquire) || !connections.empty()) {
    return;
  }
  MutexLock lock(drain_mu);
  if (!drain_done) {
    drain_done = true;
    drain_cv.notify_all();
  }
}

void HttpServer::Loop::Serve() {
  std::vector<PollEvent> events;
  while (!stop.load(std::memory_order_acquire)) {
    if (drain.load(std::memory_order_acquire) && !drain_seen) {
      drain_seen = true;
      drain_started_us = NowMicros();
      if (listen_fd >= 0) {
        poller.RemoveFd(listen_fd);
        ::close(listen_fd);
        listen_fd = -1;
      }
    }
    events.clear();
    Result<int> waited = poller.Wait(/*timeout_ms=*/50, &events);
    if (!waited.ok()) {
      LogInfo(StrCat("http loop wait failed: ",
                     waited.status().ToString()));
      break;
    }
    for (const PollEvent& event : events) {
      if (stop.load(std::memory_order_acquire)) break;
      if (event.fd == listen_fd) {
        AcceptReady();
      } else if (event.fd == wake_read_fd) {
        char scratch[256];
        while (::read(wake_read_fd, scratch, sizeof(scratch)) > 0) {
        }
        ApplyInbox();
      } else {
        HandleEvent(event);
      }
    }
    ApplyInbox();  // responses may have landed while handling events
    SweepTimeouts();
    SignalDrainDoneIfIdle();
  }
  TearDown();
}

void HttpServer::Loop::TearDown() {
  // Close the channel first so late Responders drop instead of writing to
  // a dead pipe.
  if (inbox != nullptr) {
    MutexLock lock(inbox->mu);
    inbox->open = false;
    inbox->wake_fd = -1;
  }
  for (auto& [id, conn] : connections) {
    poller.RemoveFd(conn.fd);
    ::close(conn.fd);
    stats.closed.fetch_add(1, std::memory_order_relaxed);
  }
  connections.clear();
  by_fd.clear();
  if (listen_fd >= 0) ::close(listen_fd);
  if (wake_read_fd >= 0) ::close(wake_read_fd);
  if (wake_write_fd >= 0) ::close(wake_write_fd);
  listen_fd = wake_read_fd = wake_write_fd = -1;
  MutexLock lock(drain_mu);
  drain_done = true;
  drain_cv.notify_all();
}

void HttpServer::Loop::AcceptReady() {
  while (listen_fd >= 0) {
    sockaddr_in addr = {};
    socklen_t addr_len = sizeof(addr);
    const int fd = ::accept(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                            &addr_len);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      LogInfo(StrCat("accept failed: ", strerror(errno)));
      return;
    }
    if (connections.size() >= config.max_connections ||
        drain.load(std::memory_order_acquire)) {
      ::close(fd);
      stats.rejected_at_capacity.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Status added = poller.AddFd(fd, /*read=*/true, /*write=*/false);
    if (!added.ok()) {
      ::close(fd);
      continue;
    }
    Connection conn(config.limits);
    conn.fd = fd;
    conn.id = next_id++;
    char peer[INET_ADDRSTRLEN] = "unknown";
    (void)::inet_ntop(AF_INET, &addr.sin_addr, peer, sizeof(peer));
    conn.peer = peer;
    conn.last_activity_us = NowMicros();
    by_fd[fd] = conn.id;
    const uint64_t id = conn.id;
    connections.emplace(id, std::move(conn));
    stats.accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

void HttpServer::Loop::HandleEvent(const PollEvent& event) {
  auto fd_it = by_fd.find(event.fd);
  if (fd_it == by_fd.end()) return;
  const uint64_t conn_id = fd_it->second;
  auto it = connections.find(conn_id);
  if (it == connections.end()) return;
  Connection* conn = &it->second;

  if (event.hangup) {
    // Peer fully gone; nothing can be delivered. An in-flight response is
    // counted as dropped when the Responder finds no connection.
    CloseConnection(conn_id);
    return;
  }
  if (event.writable) {
    if (!TryFlush(conn)) return;  // connection closed
  }
  if (event.readable && conn->want_read) {
    ReadReady(conn);
  }
}

void HttpServer::Loop::ReadReady(Connection* conn) {
  char buffer[16384];
  const uint64_t conn_id = conn->id;
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn->last_activity_us = NowMicros();
      const ParseState state =
          conn->parser.Consume(std::string_view(buffer,
                                                static_cast<size_t>(n)));
      if (state == ParseState::kError) {
        stats.parse_errors.fetch_add(1, std::memory_order_relaxed);
        const int status = conn->parser.error_status();
        if (status == 413 || status == 414 || status == 431) {
          stats.oversized.fetch_add(1, std::memory_order_relaxed);
        }
        if (obs::Enabled()) parse_error_counter->Increment();
        HttpResponse response;
        response.status = status;
        response.body = conn->parser.error() + "\n";
        conn->want_read = false;
        EnqueueResponse(conn, response, /*keep_alive=*/false);
        return;  // EnqueueResponse may have closed the connection
      }
      if (state == ParseState::kComplete) {
        MaybeDispatch(conn);
        if (connections.find(conn_id) == connections.end()) return;
        if (conn->awaiting_handler || !conn->want_read) return;
      }
      continue;
    }
    if (n == 0) {
      conn->read_eof = true;
      conn->want_read = false;
      // Half-close: a response still owed (or buffered) is delivered
      // before the connection goes away; otherwise close now.
      if (conn->awaiting_handler || !conn->out.empty()) {
        conn->close_after_write = true;
        UpdateInterest(conn);
      } else {
        CloseConnection(conn_id);
      }
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConnection(conn_id);
    return;
  }
}

void HttpServer::Loop::ApplyInbox() {
  std::vector<std::pair<uint64_t, HttpResponse>> ready;
  {
    MutexLock lock(inbox->mu);
    ready.swap(inbox->ready);
  }
  for (auto& [conn_id, response] : ready) {
    ApplyResponse(conn_id, std::move(response));
  }
}

void HttpServer::Loop::ApplyResponse(uint64_t conn_id,
                                     HttpResponse response) {
  auto it = connections.find(conn_id);
  if (it == connections.end() || !it->second.awaiting_handler) {
    stats.responses_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Connection* conn = &it->second;
  conn->awaiting_handler = false;
  conn->last_activity_us = NowMicros();
  if (obs::Enabled()) {
    request_us->Record(conn->last_activity_us - conn->dispatch_start_us);
  }
  const bool keep_alive = conn->keep_alive_current &&
                          !drain.load(std::memory_order_acquire) &&
                          !conn->read_eof;
  EnqueueResponse(conn, response, keep_alive);
  it = connections.find(conn_id);
  if (it == connections.end()) return;
  conn = &it->second;
  if (conn->out.empty() && !conn->close_after_write) {
    MaybeDispatch(conn);
  }
}

void HttpServer::Loop::MaybeDispatch(Connection* conn) {
  const uint64_t conn_id = conn->id;
  while (!conn->awaiting_handler && !conn->close_after_write &&
         conn->parser.state() == ParseState::kComplete) {
    HttpRequest request = conn->parser.TakeRequest();
    stats.requests.fetch_add(1, std::memory_order_relaxed);
    if (obs::Enabled()) requests_counter->Increment();
    const bool draining = drain.load(std::memory_order_acquire);
    conn->keep_alive_current = request.KeepAlive() && !draining;
    if (!limiter.Admit(conn->peer, NowMicros())) {
      stats.rate_limited.fetch_add(1, std::memory_order_relaxed);
      if (obs::Enabled()) rate_limited_counter->Increment();
      HttpResponse shed;
      shed.status = 429;
      shed.headers.push_back({"x-ceres-shed", "rate-limit"});
      shed.body = "rate limit exceeded\n";
      EnqueueResponse(conn, shed, conn->keep_alive_current);
      if (connections.find(conn_id) == connections.end()) return;
      continue;  // the parser may hold the next pipelined request already
    }
    conn->awaiting_handler = true;
    conn->dispatch_start_us = NowMicros();
    handler(std::move(request), Responder(inbox, conn_id));
    if (connections.find(conn_id) == connections.end()) return;
  }
  UpdateInterest(conn);
}

void HttpServer::Loop::EnqueueResponse(Connection* conn,
                                       const HttpResponse& response,
                                       bool keep_alive) {
  conn->out += EncodeResponse(response, keep_alive);
  if (!keep_alive) conn->close_after_write = true;
  stats.responses.fetch_add(1, std::memory_order_relaxed);
  if (obs::Enabled()) responses_counter->Increment();
  if (TryFlush(conn)) UpdateInterest(conn);
}

bool HttpServer::Loop::TryFlush(Connection* conn) {
  const uint64_t conn_id = conn->id;
  while (conn->out_offset < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_offset,
               conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      conn->want_write = true;
      UpdateInterest(conn);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn_id);  // peer reset mid-response
    return false;
  }
  conn->out.clear();
  conn->out_offset = 0;
  conn->want_write = false;
  conn->last_activity_us = NowMicros();
  if (conn->close_after_write) {
    CloseConnection(conn_id);
    return false;
  }
  if (!conn->awaiting_handler) {
    // Room for the next request: resume reading, serve pipelined input.
    conn->want_read = !conn->read_eof;
    if (conn->parser.state() == ParseState::kComplete) {
      MaybeDispatch(conn);
      return connections.find(conn_id) != connections.end();
    }
  }
  UpdateInterest(conn);
  return true;
}

void HttpServer::Loop::UpdateInterest(Connection* conn) {
  poller.UpdateFd(conn->fd,
                 conn->want_read && !conn->awaiting_handler &&
                     !conn->close_after_write,
                 conn->want_write);
}

void HttpServer::Loop::SweepTimeouts() {
  const int64_t now_us = NowMicros();
  const bool draining = drain_seen;
  std::vector<uint64_t> to_close;
  std::vector<uint64_t> to_torn;
  for (auto& [id, conn] : connections) {
    if (conn.awaiting_handler || !conn.out.empty()) continue;
    const int64_t idle_us = now_us - conn.last_activity_us;
    if (conn.parser.MidMessage()) {
      if (idle_us > config.header_timeout_ms * 1000) to_torn.push_back(id);
      continue;
    }
    if (idle_us > config.idle_timeout_ms * 1000) {
      to_close.push_back(id);
      continue;
    }
    if (draining &&
        now_us - drain_started_us > config.drain_grace_ms * 1000) {
      // Idle under drain: grace for wire-in-flight bytes has passed.
      to_close.push_back(id);
    }
  }
  for (uint64_t id : to_torn) {
    auto it = connections.find(id);
    if (it == connections.end()) continue;
    stats.torn_closed.fetch_add(1, std::memory_order_relaxed);
    HttpResponse timeout;
    timeout.status = 408;
    timeout.body = "request incomplete\n";
    it->second.want_read = false;
    EnqueueResponse(&it->second, timeout, /*keep_alive=*/false);
  }
  for (uint64_t id : to_close) {
    if (connections.find(id) == connections.end()) continue;
    if (draining) {
      stats.drained.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats.idle_closed.fetch_add(1, std::memory_order_relaxed);
    }
    CloseConnection(id);
  }
}

void HttpServer::Loop::CloseConnection(uint64_t conn_id) {
  auto it = connections.find(conn_id);
  if (it == connections.end()) return;
  poller.RemoveFd(it->second.fd);
  ::close(it->second.fd);
  by_fd.erase(it->second.fd);
  connections.erase(it);
  stats.closed.fetch_add(1, std::memory_order_relaxed);
  SignalDrainDoneIfIdle();
}

// ---------------------------------------------------------------------------
// HttpServer facade.
// ---------------------------------------------------------------------------

HttpServer::HttpServer(Handler handler, HttpServerConfig config)
    : handler_(std::move(handler)), config_(std::move(config)) {}

HttpServer::~HttpServer() { Shutdown(); }

Status HttpServer::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  loop_ = std::make_unique<Loop>(this);
  Status init = loop_->Init();
  if (!init.ok()) {
    loop_.reset();
    return init;
  }
  // Re-read the bound port from the loop's listener.
  sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(loop_->listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  started_ = true;
  loop_thread_ = std::thread([loop = loop_.get()] { loop->Serve(); });
  LogInfo(StrCat("http server listening on ", config_.bind_address, ":",
                 bound_port_));
  return Status::Ok();
}

Status HttpServer::Drain(Deadline deadline) {
  if (!started_ || loop_ == nullptr) return Status::Ok();
  loop_->drain.store(true, std::memory_order_release);
  {
    MutexLock lock(loop_->inbox->mu);
    if (loop_->inbox->open) {
      char byte = 1;
      (void)!::write(loop_->inbox->wake_fd, &byte, 1);
    }
  }
  UniqueMutexLock lock(loop_->drain_mu);
  while (!loop_->drain_done) {
    if (deadline.expired()) {
      return Status::DeadlineExceeded("drain did not complete");
    }
    loop_->drain_cv.wait_for(lock, std::chrono::milliseconds(20));
  }
  return Status::Ok();
}

void HttpServer::Shutdown() {
  if (!started_ || loop_ == nullptr) return;
  loop_->stop.store(true, std::memory_order_release);
  {
    // Wake the loop directly; the inbox may already be closed.
    MutexLock lock(loop_->inbox->mu);
    if (loop_->inbox->open) {
      char byte = 1;
      (void)!::write(loop_->inbox->wake_fd, &byte, 1);
    }
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  final_stats_ = stats();
  loop_.reset();
  started_ = false;
}

HttpServerStats HttpServer::stats() const {
  if (loop_ == nullptr) return final_stats_;
  HttpServerStats out;
  const StatsCells& cells = loop_->stats;
  out.accepted = cells.accepted.load(std::memory_order_relaxed);
  out.rejected_at_capacity =
      cells.rejected_at_capacity.load(std::memory_order_relaxed);
  out.closed = cells.closed.load(std::memory_order_relaxed);
  out.requests = cells.requests.load(std::memory_order_relaxed);
  out.responses = cells.responses.load(std::memory_order_relaxed);
  out.responses_dropped =
      cells.responses_dropped.load(std::memory_order_relaxed);
  out.rate_limited = cells.rate_limited.load(std::memory_order_relaxed);
  out.parse_errors = cells.parse_errors.load(std::memory_order_relaxed);
  out.oversized = cells.oversized.load(std::memory_order_relaxed);
  out.idle_closed = cells.idle_closed.load(std::memory_order_relaxed);
  out.torn_closed = cells.torn_closed.load(std::memory_order_relaxed);
  out.drained = cells.drained.load(std::memory_order_relaxed);
  return out;
}

}  // namespace ceres::net
