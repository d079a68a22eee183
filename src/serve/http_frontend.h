#ifndef CERES_SERVE_HTTP_FRONTEND_H_
#define CERES_SERVE_HTTP_FRONTEND_H_

#include <cstdint>
#include <memory>
#include <string>

#include "net/http.h"
#include "net/http_server.h"
#include "serve/sharded_service.h"
#include "util/deadline.h"
#include "util/status.h"
#include "util/sync.h"

namespace ceres::serve {

/// Stable JSON rendering of one extraction outcome; the single source of
/// truth for the HTTP response body. Exposed so tests can assert that a
/// loopback response is byte-identical to encoding a direct
/// ShardedExtractionService::Submit result.
std::string EncodeServeResultJson(const std::string& site,
                                  const ServeResult& result);

/// The HTTP status expressing `code` (kInvalidArgument -> 400,
/// kNotFound -> 404, kResourceExhausted -> 503, ...).
int HttpStatusForCode(StatusCode code);

/// The HTTP front-end: routes requests into a ShardedExtractionService
/// and answers each /extract from the service's completion hook.
///
/// Endpoints:
///   POST /extract?site=S[&url=U]  body: page HTML -> extraction JSON
///   GET  /healthz                 liveness probe
///   GET  /metrics                 Prometheus text exposition
///   GET  /stats                   service + cache + server stats JSON
///   POST /admin/invalidate?site=S drop warm model + cached extractions
///   POST /admin/drain             request graceful drain (202; the
///                                 process owner performs the drain)
///
/// The event loop hands parsed requests to Route(). An /extract submission
/// carries a completion hook that sends the JSON response through the
/// request's Responder on whichever thread resolves it: the loop itself for
/// a page-cache hit or an admission shed, a shard worker otherwise. The
/// front-end starts no thread of its own and the loop never waits on
/// extraction. Overload is shed by the shard's bounded queue
/// (kResourceExhausted -> 503), and every admitted submission is answered
/// by its own hook. Drain order for a clean exit: Drain() (stop accepting,
/// finish in-flight sockets) runs while the service keeps running, so
/// every admitted request is answered; then Stop() shuts the server.
class ExtractionFrontend {
 public:
  ExtractionFrontend(ShardedExtractionService* service,
                     net::HttpServerConfig config = {});
  ~ExtractionFrontend();

  ExtractionFrontend(const ExtractionFrontend&) = delete;
  ExtractionFrontend& operator=(const ExtractionFrontend&) = delete;

  /// Starts the HTTP server.
  Status Start();

  /// Graceful drain of the socket edge (see HttpServer::Drain). After this
  /// every accepted request has been answered and flushed.
  Status Drain(Deadline deadline = Deadline());

  /// Hard stop: shuts the server. A completion that lands afterwards is
  /// dropped by its Responder and counted in `responses_dropped`.
  void Stop();

  uint16_t port() const { return server_->port(); }
  net::HttpServerStats server_stats() const { return server_->stats(); }

  /// True once POST /admin/drain was received; the process owner polls or
  /// waits on this to run Drain()+Stop() from the main thread.
  bool drain_requested() const;
  /// Blocks until drain_requested() or `deadline`.
  void WaitForDrainRequest(Deadline deadline = Deadline());

 private:
  void Route(net::HttpRequest request, net::HttpServer::Responder responder);
  void HandleExtract(net::HttpRequest request,
                     net::HttpServer::Responder responder);

  ShardedExtractionService* const service_;
  const net::HttpServerConfig config_;
  std::unique_ptr<net::HttpServer> server_;

  mutable CheckedMutex mu_{"ExtractionFrontend.mu"};
  CondVar drain_cv_;
  bool stopping_ CERES_GUARDED_BY(mu_) = false;
  bool drain_requested_ CERES_GUARDED_BY(mu_) = false;
  bool started_ = false;
};

}  // namespace ceres::serve

#endif  // CERES_SERVE_HTTP_FRONTEND_H_
