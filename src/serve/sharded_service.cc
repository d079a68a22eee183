#include "serve/sharded_service.h"

#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace ceres::serve {

ShardedExtractionService::ShardedExtractionService(Ontology ontology,
                                                   ShardedServiceConfig config)
    : config_(std::move(config)), cache_(config_.cache) {
  CERES_CHECK_MSG(config_.num_shards >= 1, "num_shards must be >= 1");
  shards_.reserve(static_cast<size_t>(config_.num_shards));
  for (int i = 0; i < config_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    ModelRegistryConfig registry_config = config_.registry;
    registry_config.root_dir =
        StrCat(config_.registry.root_dir, "/shard-", i);
    shard->registry =
        std::make_unique<ModelRegistry>(ontology, registry_config);
    shard->service = std::make_unique<ExtractionService>(
        shard->registry.get(), config_.service);
    shards_.push_back(std::move(shard));
  }
}

ShardedExtractionService::~ShardedExtractionService() { Stop(); }

Status ShardedExtractionService::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  for (auto& shard : shards_) {
    CERES_RETURN_IF_ERROR(shard->service->Start());
  }
  started_ = true;
  return Status::Ok();
}

void ShardedExtractionService::Stop() {
  for (auto& shard : shards_) shard->service->Stop();
  started_ = false;
}

size_t ShardedExtractionService::ShardOf(std::string_view site) const {
  return static_cast<size_t>(ShardOfSite(site, config_.num_shards));
}

std::future<ServeResult> ShardedExtractionService::Submit(
    ServeRequest request, ExtractionService::CompletionHook on_complete) {
  CachedExtraction cached;
  if (cache_.Lookup(request.site, request.html, &cached)) {
    ServeResult result;
    result.status = Status::Ok();
    result.triples = std::move(cached.triples);
    result.diagnostics = cached.diagnostics;
    result.diagnostics.near_dup_hit = true;
    if (on_complete) on_complete(result);
    std::promise<ServeResult> promise;
    promise.set_value(std::move(result));
    return promise.get_future();
  }
  Shard& shard = *shards_[ShardOf(request.site)];
  if (!cache_.config().enabled) {
    return shard.service->Submit(std::move(request), std::move(on_complete));
  }
  // The cache insert rides the shard's completion hook, ahead of the
  // caller's, so a caller woken by its own hook or by the future sees the
  // entry. The hook's `this` capture lives only inside the shard service,
  // which this object owns and stops before the cache is destroyed. The
  // hook keeps its own copy of the page: the request itself moves into the
  // shard. The generation is read before the shard can apply a model, so
  // a Publish that lands while this request is in flight keeps its
  // (possibly old-model) result out.
  ExtractionService::CompletionHook insert_then_complete =
      [this, site = request.site, html = request.html,
       generation = cache_.generation(),
       on_complete = std::move(on_complete)](
          const ServeResult& result) mutable {
        if (result.status.ok() && !result.diagnostics.near_dup_hit) {
          cache_.Insert(site, std::move(html),
                        CachedExtraction{result.triples, result.diagnostics},
                        generation);
        }
        if (on_complete) on_complete(result);
      };
  return shard.service->Submit(std::move(request),
                               std::move(insert_then_complete));
}

Result<int64_t> ShardedExtractionService::Publish(const std::string& site,
                                                  const TrainedModel& model) {
  Result<int64_t> version =
      shards_[ShardOf(site)]->registry->Publish(site, model);
  // Even a failed publish may have changed the store; dropping cached
  // extractions is always safe, serving stale ones is not.
  cache_.InvalidateSite(site);
  return version;
}

void ShardedExtractionService::Invalidate(const std::string& site) {
  shards_[ShardOf(site)]->registry->Invalidate(site);
  cache_.InvalidateSite(site);
}

ShardedServiceStats ShardedExtractionService::stats() const {
  ShardedServiceStats out;
  out.per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.per_shard.push_back(shard->service->stats());
  }
  out.cache = cache_.stats();
  return out;
}

}  // namespace ceres::serve
