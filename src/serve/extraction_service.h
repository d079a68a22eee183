#ifndef CERES_SERVE_EXTRACTION_SERVICE_H_
#define CERES_SERVE_EXTRACTION_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/extractor.h"
#include "dom/html_parser.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/serve_diagnostics.h"
#include "util/deadline.h"
#include "util/status.h"
#include "util/sync.h"

namespace ceres::serve {

/// One extraction request: a crawled page of a known site, plus the
/// caller's cooperative deadline (default: none). The site name selects
/// the per-site model in the registry.
struct ServeRequest {
  std::string site;
  std::string html;
  std::string url;
  Deadline deadline;
};

/// The outcome of one request. `status` is OK when extraction ran (even if
/// it produced zero triples); shed / failed requests carry the typed error
/// and `diagnostics.shed_cause` says which admission or execution gate
/// rejected them.
struct ServeResult {
  Status status;
  std::vector<Extraction> triples;
  ServeDiagnostics diagnostics;
};

struct ExtractionServiceConfig {
  /// Worker threads applying models (0 = hardware concurrency).
  int worker_threads = 8;
  /// Global pending-request bound; submissions beyond it are shed with
  /// kResourceExhausted (admission control, never an unbounded queue).
  size_t max_queue = 1024;
  /// Most requests drained into one model application batch.
  size_t max_batch = 16;
  /// Concurrent batches per site. Caps how much of the worker pool one
  /// hot site can own, so a traffic spike on one site cannot starve the
  /// rest (per-site fairness under load).
  int per_site_max_inflight = 2;
  HtmlParseOptions parse;
  ExtractionConfig extraction;
};

/// A long-running online extraction service over a ModelRegistry.
///
/// This is one shard of the serving tier. ShardedExtractionService
/// (serve/sharded_service.h) owns one per shard and is the entry point
/// every driver and bench serves through; only the serve tier and its
/// tests construct this class directly.
///
/// Submit(request) admits the request (bounded queue, pre-expired-deadline
/// shedding), enqueues it on its site's micro-batch queue, and returns a
/// future. Worker threads — a pool fanned out over util/parallel.h's
/// ParallelFor — repeatedly claim the site whose queue became ready first,
/// drain up to `max_batch` requests, load the site model through the warm
/// registry, parse the batch's pages, run one batched model application,
/// and fulfil the futures with triples + per-request ServeDiagnostics
/// (queue wait, parse time, inference time, shed causes).
///
/// Failure containment mirrors the offline pipeline's graceful
/// degradation: a model-load failure sheds only that site's batch with a
/// typed kModelLoadFailed diagnostic; an unparseable page fails only its
/// own request (kParseFailed); deadline expiry in the queue sheds only the
/// expired requests. The service itself never crashes on bad input.
///
/// Submit is valid before Start(): requests queue up and run once workers
/// exist (tests use this for deterministic batching). Stop() sheds
/// anything still queued with kShutdown and joins the pool; the destructor
/// calls Stop().
class ExtractionService {
 public:
  explicit ExtractionService(ModelRegistry* registry,
                             ExtractionServiceConfig config = {});
  ~ExtractionService();

  ExtractionService(const ExtractionService&) = delete;
  ExtractionService& operator=(const ExtractionService&) = delete;

  /// Spawns the worker pool. Fails on a second Start or after Stop.
  Status Start();

  /// Stops accepting work, sheds queued requests, joins workers. Safe to
  /// call twice.
  void Stop();

  /// Runs on the thread that resolves the request (a worker for executed
  /// batches, the submitter for admission sheds, Stop for orphans),
  /// strictly before the future becomes ready — a caller woken by
  /// future.get() observes the hook's side effects. Must not call back
  /// into this service.
  using CompletionHook = std::function<void(const ServeResult&)>;

  /// Admission-controlled enqueue. The returned future is always valid;
  /// shed requests resolve immediately with the typed reason. The future
  /// is plain promise-backed state: safe to poll with wait_for and safe
  /// to hold past the service's lifetime.
  std::future<ServeResult> Submit(ServeRequest request,
                                  CompletionHook on_complete = nullptr);

  ServiceStats stats() const;

 private:
  struct PendingRequest {
    ServeRequest request;
    std::promise<ServeResult> promise;
    CompletionHook on_complete;
    obs::TimePoint enqueued;
  };

  struct SiteQueue {
    std::deque<PendingRequest> pending;
    int inflight_batches = 0;
    bool in_ready_list = false;
  };

  void WorkerLoop() CERES_EXCLUDES(mu_);
  void ProcessBatch(const std::string& site, std::vector<PendingRequest> batch)
      CERES_EXCLUDES(mu_);
  /// Marks `site` ready if it has work and spare inflight slots.
  void MaybeReadyLocked(const std::string& site, SiteQueue* queue)
      CERES_REQUIRES(mu_);
  static ServeResult ShedResult(Status status, ShedCause cause);

  ModelRegistry* const registry_;
  const ExtractionServiceConfig config_;

  mutable CheckedMutex mu_{"ExtractionService.mu"};
  CondVar work_ready_;
  std::unordered_map<std::string, SiteQueue> queues_ CERES_GUARDED_BY(mu_);
  /// Sites with drainable work, FIFO across sites.
  std::deque<std::string> ready_ CERES_GUARDED_BY(mu_);
  size_t total_pending_ CERES_GUARDED_BY(mu_) = 0;
  bool accepting_ CERES_GUARDED_BY(mu_) = true;
  bool stopping_ CERES_GUARDED_BY(mu_) = false;
  bool started_ CERES_GUARDED_BY(mu_) = false;
  /// Launcher thread owning the worker pool; written by Start under mu_,
  /// joined by Stop after workers have been told to drain.
  std::thread pool_ CERES_GUARDED_BY(mu_);

  mutable CheckedMutex stats_mu_{"ExtractionService.stats_mu"};
  ServiceStats stats_ CERES_GUARDED_BY(stats_mu_);
};

}  // namespace ceres::serve

#endif  // CERES_SERVE_EXTRACTION_SERVICE_H_
