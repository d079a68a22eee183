// serve_bench — the serving bench: ShardedExtractionService in process,
// then behind the HTTP front-end over loopback.
//
// Trains one extractor per site of an SWDE-style movie corpus (even pages
// annotate, odd pages are the held-out crawl). Every phase starts a fresh
// ShardedExtractionService over its own model store, publishes the models
// into it and serves the held-out crawl:
//
//   registry  in process, worker threads x {warm, cold}, one shard, page
//             cache off so the model registry is what gets measured. cold
//             has a 1-byte registry budget and no micro-batching: every
//             request re-reads its model file.
//   fault     in process; one site's model file is truncated first.
//   traffic   in process, default configuration (two shards, page cache
//             on), several passes with requests for an unpublished site;
//             a quarter of the way in one site's model is republished.
//   cold, warm_keepalive, warm_per_request, ratelimited
//             over loopback HTTP: a first pass, the same pages again on
//             keep-alive and on one connection per request (three
//             interleaved samples each, the median-QPS one reported), and
//             a burst against a tight per-client token bucket.
//
// Each cell emits `BENCH {"bench":"serve_bench","mode":..,"phase":..}`.
// Invariants (exit 1 on violation):
//   registry  completed + shed == submitted; the stage histograms saw every
//             completed request; nothing shed; warm QPS >= 5x cold at the
//             top thread count (full run only).
//   fault     every victim-site request sheds as kModelLoadFailed; every
//             other request is served.
//   traffic   exact accounting through the cache and the shards; every
//             failure carries a typed shed cause; unpublished-site requests
//             shed with kNotFound; every swap-site request submitted after
//             the republish is served by v2; registry hits > misses.
//   loopback  every serving request gets HTTP 200 with no transport error;
//             both warm phases are answered entirely by the page cache;
//             warm beats cold and keep-alive beats per-request QPS; drains
//             are clean (requests == responses, none dropped); the burst
//             sees 429s, as many as the server's rate_limited counter, and
//             200s + 429s == burst.
//
// Usage: serve_bench [--smoke] [--persist]
//   --smoke:   2 sites at reduced scale, 1/4 threads, fewer passes, no QPS
//              ratio gate; wired into tools/tier1.sh.
//   --persist: rewrite the BENCH lines to BENCH_serve_bench.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/model_io.h"
#include "core/pipeline.h"
#include "dom/html_parser.h"
#include "net/http_client.h"
#include "obs/metrics.h"
#include "robustness/fault_injector.h"
#include "serve/http_frontend.h"
#include "serve/sharded_service.h"
#include "synth/corpora.h"
#include "util/random.h"
#include "util/string_util.h"

namespace {

using namespace ceres;  // NOLINT(build/namespaces)
using Clock = std::chrono::steady_clock;

int g_violations = 0;
bench::BenchJson g_bench("serve_bench");
const char* g_mode = "full";

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "INVARIANT VIOLATED: %s\n", what);
    ++g_violations;
  }
}

[[noreturn]] void Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

/// One BENCH line; `fields` is a run of `,"key":value` pairs.
void Emit(const char* phase, const std::string& fields) {
  g_bench.Emit(StrCat("{\"bench\":\"serve_bench\",\"mode\":\"", g_mode,
                      "\",\"phase\":\"", phase, "\"", fields, "}"));
}

obs::Histogram* Histogram(const char* name) {
  return obs::MetricsRegistry::Default().GetHistogram(name);
}

std::string LatencyFields(obs::Histogram* latency_us) {
  return StrCat(",\"p50_us\":", latency_us->Percentile(0.50),
                ",\"p95_us\":", latency_us->Percentile(0.95),
                ",\"p99_us\":", latency_us->Percentile(0.99));
}

struct TrainedSite {
  std::string name;
  TrainedModel model;
  std::vector<const synth::GeneratedPage*> held_out;
};

struct Fixture {
  synth::Corpus corpus;
  std::vector<TrainedSite> sites;
  std::string store;
};

struct Request {
  const std::string* site;
  const synth::GeneratedPage* page;
};

/// `passes` over the held-out crawl, sites interleaved so consecutive
/// requests alternate sites (and shards). With `unpublished` set, every
/// 16th slot also asks for that site.
std::vector<Request> Interleave(const Fixture& fixture, int passes,
                                const std::string* unpublished = nullptr) {
  size_t max_pages = 0;
  for (const TrainedSite& site : fixture.sites) {
    max_pages = std::max(max_pages, site.held_out.size());
  }
  std::vector<Request> stream;
  for (int pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < max_pages; ++i) {
      for (const TrainedSite& site : fixture.sites) {
        if (i < site.held_out.size()) {
          stream.push_back(Request{&site.name, site.held_out[i]});
        }
      }
      if (unpublished != nullptr && i % 16 == 0) {
        stream.push_back(
            Request{unpublished, fixture.sites.front().held_out.front()});
      }
    }
  }
  return stream;
}

Fixture Train(bool smoke) {
  Fixture fixture{synth::MakeSwdeCorpus(synth::SwdeVertical::kMovie,
                                        smoke ? 0.3 : 0.6, 100),
                  {},
                  (std::filesystem::temp_directory_path() / "serve_bench")
                      .string()};
  const size_t num_sites =
      std::min<size_t>(smoke ? 2 : 4, fixture.corpus.sites.size());
  for (size_t s = 0; s < num_sites; ++s) {
    const synth::SyntheticSite& site = fixture.corpus.sites[s];
    std::vector<DomDocument> pages;
    for (const synth::GeneratedPage& page : site.pages) {
      Result<DomDocument> doc = ParseHtml(page.html);
      if (!doc.ok()) Fail("unparseable generated page", doc.status());
      pages.push_back(std::move(doc).value());
    }
    // A deep lexicon makes realistically heavy models (several hundred
    // KB), the load cost the warm registry exists to amortize.
    PipelineConfig config;
    config.features.frequent_string_page_fraction = 0.05;
    config.features.max_frequent_strings = 2000;
    config.features.text_feature_levels = 4;
    for (size_t i = 0; i < pages.size(); i += 2) {
      config.annotation_pages.push_back(static_cast<PageIndex>(i));
    }
    config.extraction_pages = config.annotation_pages;
    Result<PipelineResult> trained =
        RunPipeline(pages, fixture.corpus.seed_kb, config);
    if (!trained.ok() || trained->models.empty()) {
      std::fprintf(stderr, "site %s trained no model; skipping\n",
                   site.name.c_str());
      continue;
    }
    TrainedSite entry{site.name, trained->models.front().model, {}};
    for (size_t i = 1; i < site.pages.size(); i += 2) {
      entry.held_out.push_back(&site.pages[i]);
    }
    fixture.sites.push_back(std::move(entry));
  }
  if (fixture.sites.size() < 2) {
    std::fprintf(stderr, "need at least two trained sites\n");
    std::exit(1);
  }
  return fixture;
}

/// A started service over a fresh store `<store>/<name>` with every
/// trained model published as v1.
std::unique_ptr<serve::ShardedExtractionService> StartService(
    const Fixture& fixture, serve::ShardedServiceConfig config,
    const std::string& name) {
  config.registry.root_dir = fixture.store + "/" + name;
  std::filesystem::remove_all(config.registry.root_dir);
  auto service = std::make_unique<serve::ShardedExtractionService>(
      fixture.corpus.seed_kb.ontology(), config);
  for (const TrainedSite& site : fixture.sites) {
    Result<int64_t> version = service->Publish(site.name, site.model);
    if (!version.ok()) Fail("publish failed", version.status());
  }
  Status started = service->Start();
  if (!started.ok()) Fail("service start failed", started);
  return service;
}

serve::ServiceStats ShardTotals(const serve::ShardedServiceStats& stats) {
  serve::ServiceStats total;
  for (const serve::ServiceStats& shard : stats.per_shard) {
    total.submitted += shard.submitted;
    total.completed += shard.completed;
    for (int c = 0; c < serve::kNumShedCauses; ++c) {
      total.shed[c] += shard.shed[c];
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// In-process phases.
// ---------------------------------------------------------------------------

struct InProcessRun {
  double qps = 0;
  std::vector<serve::ServeResult> results;  // by stream index
};

/// Replays `stream` through `service` with closed-loop client threads.
/// With `swap` set, the client that resolves request stream.size() / 4
/// runs it while later requests are still being submitted and served;
/// requests from the middle of the stream on wait for it to return.
InProcessRun Replay(serve::ShardedExtractionService* service,
                    const std::vector<Request>& stream, int clients,
                    const std::function<void()>& swap = {}) {
  InProcessRun run;
  run.results.resize(stream.size());
  std::atomic<size_t> next{0};
  std::atomic<size_t> resolved{0};
  std::promise<void> swapped;
  std::shared_future<void> swap_done = swapped.get_future().share();
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      for (;;) {
        const size_t index = next.fetch_add(1);
        if (index >= stream.size()) return;
        if (swap && index >= stream.size() / 2) swap_done.wait();
        serve::ServeRequest request;
        request.site = *stream[index].site;
        request.html = stream[index].page->html;
        request.url = stream[index].page->url;
        run.results[index] = service->Submit(std::move(request)).get();
        if (swap && resolved.fetch_add(1) + 1 == stream.size() / 4) {
          swap();
          swapped.set_value();
        }
      }
    });
  }
  for (std::thread& client : pool) client.join();
  run.qps = static_cast<double>(stream.size()) /
            std::chrono::duration<double>(Clock::now() - t0).count();
  return run;
}

void RegistrySweep(const Fixture& fixture, bool smoke) {
  const std::vector<Request> stream = Interleave(fixture, smoke ? 1 : 3);
  const std::vector<int> sweep =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  double top_qps[2] = {0, 0};  // cold, warm
  for (int threads : sweep) {
    for (bool warm : {true, false}) {
      serve::ShardedServiceConfig config;
      config.num_shards = 1;
      config.cache.enabled = false;
      config.service.worker_threads = threads;
      config.service.max_queue = stream.size() + 1;
      if (!warm) {
        // The cache-less server: one load per request, no batching or
        // in-flight dedup to amortize it.
        config.registry.byte_budget = 1;
        config.service.max_batch = 1;
        config.service.per_site_max_inflight = 1;
      }
      auto service = StartService(fixture, config, "registry");
      // The histograms read back below describe only this cell.
      obs::MetricsRegistry::Default().Reset();
      const InProcessRun run =
          Replay(service.get(), stream, std::max(4, threads * 2));
      service->Stop();
      const serve::ServiceStats stats = ShardTotals(service->stats());
      obs::Histogram* parse = Histogram("ceres_serve_parse_us");
      obs::Histogram* inference = Histogram("ceres_serve_inference_us");
      obs::Histogram* queue_wait = Histogram("ceres_serve_queue_wait_us");
      Emit("registry",
           StrCat(",\"cache\":\"", warm ? "warm" : "cold",
                  "\",\"threads\":", threads, ",\"requests\":",
                  stats.submitted, ",\"qps\":", run.qps,
                  LatencyFields(Histogram("ceres_serve_request_latency_us")),
                  ",\"shed\":", stats.total_shed(), ",\"batch_size_mean\":",
                  obs::MetricsRegistry::Default()
                      .GetHistogram("ceres_serve_batch_size",
                                    obs::SizeBuckets())
                      ->Mean(),
                  ",\"stage_us\":{\"queue_wait_p50\":",
                  queue_wait->Percentile(0.5), ",\"queue_wait_p95\":",
                  queue_wait->Percentile(0.95), ",\"parse_p50\":",
                  parse->Percentile(0.5), ",\"parse_p95\":",
                  parse->Percentile(0.95), ",\"inference_p50\":",
                  inference->Percentile(0.5), ",\"inference_p95\":",
                  inference->Percentile(0.95), "}"));
      Require(stats.submitted == static_cast<int64_t>(stream.size()) &&
                  stats.completed + stats.total_shed() == stats.submitted,
              "registry: completed + shed == submitted");
      Require(parse->Count() == stats.completed,
              "registry: stage histograms saw every completed request");
      Require(stats.total_shed() == 0, "registry: healthy sweep sheds nothing");
      if (threads == sweep.back()) top_qps[warm ? 1 : 0] = run.qps;
    }
  }
  std::printf("registry warm/cold qps at %d threads: %.1fx\n", sweep.back(),
              top_qps[0] > 0 ? top_qps[1] / top_qps[0] : 0.0);
  if (!smoke) {
    // A steady-state statement; at smoke scale the models are too small to
    // separate cleanly.
    Require(top_qps[1] >= 5.0 * top_qps[0],
            "registry: warm QPS at the top thread count >= 5x cold");
  }
}

void FaultBurst(const Fixture& fixture, bool smoke) {
  const std::vector<Request> stream = Interleave(fixture, 1);
  serve::ShardedServiceConfig config;
  config.num_shards = 1;
  config.cache.enabled = false;
  config.service.worker_threads = smoke ? 4 : 8;
  config.service.max_queue = stream.size() + 1;
  auto service = StartService(fixture, config, "fault");

  const std::string& victim = fixture.sites.front().name;
  const std::string& root =
      service->registry(service->ShardOf(victim))->config().root_dir;
  Result<int64_t> latest = LatestModelVersion(root, victim);
  if (!latest.ok()) Fail("latest version lookup failed", latest.status());
  const std::string path = ModelVersionPath(root, victim, *latest);
  std::ifstream in(path);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  Rng rng(7);
  std::ofstream(path, std::ios::trunc) << CorruptHtml(
      bytes, FaultType::kTruncate, FaultInjectionConfig{}, &rng);
  service->Invalidate(victim);  // drop the warm copy Publish installed

  const InProcessRun run = Replay(service.get(), stream, 8);
  service->Stop();
  int64_t victim_requests = 0, victim_sheds = 0, others_served = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const serve::ServeResult& result = run.results[i];
    if (*stream[i].site != victim) {
      others_served += result.status.ok() ? 1 : 0;
      continue;
    }
    ++victim_requests;
    victim_sheds += result.diagnostics.shed_cause ==
                            serve::ShedCause::kModelLoadFailed
                        ? 1
                        : 0;
  }
  Emit("fault", StrCat(",\"requests\":", stream.size(), ",\"qps\":", run.qps,
                       ",\"victim_requests\":", victim_requests,
                       ",\"model_load_sheds\":", victim_sheds,
                       ",\"others_served\":", others_served));
  Require(victim_requests > 0 && victim_sheds == victim_requests,
          "fault: every victim-site request sheds as kModelLoadFailed");
  Require(others_served ==
              static_cast<int64_t>(stream.size()) - victim_requests,
          "fault: the other sites keep serving");
}

void Traffic(const Fixture& fixture, bool smoke) {
  const std::string unpublished = "unpublished.example";
  const std::vector<Request> stream =
      Interleave(fixture, smoke ? 2 : 3, &unpublished);
  serve::ShardedServiceConfig config;
  config.service.max_queue = stream.size() + 1;
  auto service = StartService(fixture, config, "traffic");
  obs::MetricsRegistry::Default().Reset();

  // The republish lands while requests are in flight: those finish on
  // v1, and the second half of the stream, submitted after the Publish
  // returned, must be served by v2 — never by a v1 result from the cache.
  const TrainedSite& swap = fixture.sites.front();
  int64_t swap_version = -1;
  const InProcessRun run = Replay(service.get(), stream, 16, [&] {
    Result<int64_t> version = service->Publish(swap.name, swap.model);
    if (!version.ok()) Fail("hot-swap publish failed", version.status());
    swap_version = *version;
  });
  service->Stop();

  int64_t ok = 0, typed_sheds = 0, untyped = 0;
  int64_t unpublished_requests = 0, unpublished_not_found = 0;
  int64_t after_swap = 0, after_swap_v2 = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const serve::ServeResult& result = run.results[i];
    if (stream[i].site == &unpublished) {
      ++unpublished_requests;
      unpublished_not_found +=
          result.diagnostics.shed_cause ==
                      serve::ShedCause::kModelLoadFailed &&
                  result.status.code() == StatusCode::kNotFound
              ? 1
              : 0;
    }
    if (i >= stream.size() / 2 && *stream[i].site == swap.name) {
      ++after_swap;
      after_swap_v2 += result.diagnostics.model_version == 2 ? 1 : 0;
    }
    if (result.status.ok()) {
      ++ok;
    } else if (result.diagnostics.shed_cause == serve::ShedCause::kNone) {
      ++untyped;
    } else {
      ++typed_sheds;
    }
  }
  const serve::ShardedServiceStats stats = service->stats();
  const serve::ServiceStats shards = ShardTotals(stats);
  serve::RegistryStats registry;
  for (int s = 0; s < service->num_shards(); ++s) {
    const serve::RegistryStats shard =
        service->registry(static_cast<size_t>(s))->stats();
    registry.hits += shard.hits;
    registry.misses += shard.misses;
  }
  const int64_t requests = static_cast<int64_t>(stream.size());
  Emit("traffic",
       StrCat(",\"requests\":", requests, ",\"qps\":", run.qps,
              LatencyFields(Histogram("ceres_serve_request_latency_us")),
              ",\"served\":", ok, ",\"cache_hits\":", stats.cache.hits,
              ",\"shed\":", typed_sheds, ",\"registry_hits\":",
              registry.hits, ",\"registry_misses\":", registry.misses,
              ",\"after_swap_v2\":", after_swap_v2));
  Require(stats.cache.hits + stats.cache.misses == requests &&
              stats.cache.misses == shards.submitted &&
              shards.completed + shards.total_shed() == shards.submitted &&
              ok == stats.cache.hits + shards.completed,
          "traffic: accounting is exact through the cache and the shards");
  Require(untyped == 0, "traffic: every failure carries a typed shed cause");
  Require(unpublished_requests > 0 &&
              unpublished_not_found == unpublished_requests,
          "traffic: unpublished-site requests shed kModelLoadFailed with "
          "kNotFound");
  Require(swap_version == 2 && after_swap > 0 && after_swap_v2 == after_swap,
          "traffic: every request after the hot-swap is served by v2");
  Require(registry.hits > registry.misses,
          "traffic: registry hits exceed misses");
}

// ---------------------------------------------------------------------------
// Loopback phases.
// ---------------------------------------------------------------------------

struct HttpRun {
  double qps = 0;
  std::string latency;  // LatencyFields of the server's request histogram
  std::map<int, int64_t> statuses;
  int64_t transport_errors = 0;
  int64_t cache_hits = 0;

  int64_t count(int status) const {
    auto it = statuses.find(status);
    return it == statuses.end() ? 0 : it->second;
  }
  bool AllOk(int requests) const {
    return transport_errors == 0 && count(200) == requests;
  }
};

/// Drives `requests` closed-loop requests (wrapping over `stream`) through
/// `clients` connections, reconnecting around every request when
/// `per_request` is set.
HttpRun RunHttp(uint16_t port, const std::vector<Request>& stream,
                int clients, int requests, bool per_request,
                serve::ShardedExtractionService* service) {
  obs::MetricsRegistry::Default().Reset();
  const int64_t hits_before = service->stats().cache.hits;
  std::atomic<int> next{0};
  std::atomic<int64_t> transport_errors{0};
  std::vector<std::map<int, int64_t>> statuses(static_cast<size_t>(clients));
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      net::HttpClient client("127.0.0.1", port);
      for (;;) {
        const int index = next.fetch_add(1);
        if (index >= requests) break;
        const Request& work =
            stream[static_cast<size_t>(index) % stream.size()];
        net::HttpRequest request;
        request.method = "POST";
        request.target = StrCat("/extract?site=", *work.site);
        request.version = "HTTP/1.1";
        request.body = work.page->html;
        Result<net::HttpResponse> response = client.Roundtrip(request);
        if (!response.ok()) {
          transport_errors.fetch_add(1);
          client.Close();
          continue;
        }
        ++statuses[static_cast<size_t>(c)][response->status];
        if (per_request) client.Close();
      }
    });
  }
  for (std::thread& worker : pool) worker.join();

  HttpRun run;
  run.qps = static_cast<double>(requests) /
            std::chrono::duration<double>(Clock::now() - t0).count();
  run.latency = LatencyFields(Histogram("ceres_net_request_us"));
  for (const std::map<int, int64_t>& per_client : statuses) {
    for (const auto& [status, count] : per_client) {
      run.statuses[status] += count;
    }
  }
  run.transport_errors = transport_errors.load();
  run.cache_hits = service->stats().cache.hits - hits_before;
  return run;
}

void EmitHttp(const char* phase, int requests, const HttpRun& run,
              int64_t rate_limited = 0) {
  Emit(phase, StrCat(",\"requests\":", requests, ",\"qps\":", run.qps,
                     run.latency, ",\"cache_hits\":", run.cache_hits,
                     ",\"status_200\":", run.count(200), ",\"status_429\":",
                     run.count(429), ",\"shed_rate_limited\":",
                     rate_limited));
}

/// Drains and stops `frontend`; requires the socket edge to account for
/// every request.
net::HttpServerStats DrainAndStop(serve::ExtractionFrontend* frontend) {
  Status drained = frontend->Drain(Deadline::After(std::chrono::seconds(10)));
  const net::HttpServerStats http = frontend->server_stats();
  frontend->Stop();
  Require(drained.ok() && http.requests == http.responses &&
              http.responses_dropped == 0,
          "loopback: drain is clean (requests == responses, none dropped)");
  return http;
}

void Loopback(const Fixture& fixture, bool smoke) {
  const std::vector<Request> stream = Interleave(fixture, 1);
  serve::ShardedServiceConfig config;
  config.service.worker_threads = 2;
  auto service = StartService(fixture, config, "loopback");
  const int kClients = 4;
  const int cold_requests = static_cast<int>(stream.size());
  const int warm_requests = smoke ? 400 : 1000;
  {
    serve::ExtractionFrontend frontend(service.get());
    Status started = frontend.Start();
    if (!started.ok()) Fail("frontend start failed", started);
    const HttpRun cold = RunHttp(frontend.port(), stream, kClients,
                                 cold_requests, false, service.get());
    EmitHttp("cold", cold_requests, cold);
    Require(cold.AllOk(cold_requests), "cold: every request gets HTTP 200");

    // Keep-alive and per-request samples alternate so host noise hits
    // both alike; each side is judged by its median-QPS sample.
    std::vector<HttpRun> warm[2];  // keep-alive, per-request
    for (int sample = 0; sample < 3; ++sample) {
      for (bool per_request : {false, true}) {
        HttpRun run = RunHttp(frontend.port(), stream, kClients,
                              warm_requests, per_request, service.get());
        Require(run.AllOk(warm_requests), "warm: every request gets 200");
        Require(run.cache_hits == warm_requests,
                "warm: answered entirely by the page cache");
        warm[per_request ? 1 : 0].push_back(std::move(run));
      }
    }
    for (std::vector<HttpRun>& runs : warm) {
      std::sort(runs.begin(), runs.end(),
                [](const HttpRun& a, const HttpRun& b) {
                  return a.qps < b.qps;
                });
    }
    const HttpRun& keepalive = warm[0][1];
    const HttpRun& per_request = warm[1][1];
    EmitHttp("warm_keepalive", warm_requests, keepalive);
    EmitHttp("warm_per_request", warm_requests, per_request);
    std::printf("loopback qps: cold %.0f, warm keep-alive %.0f, warm "
                "per-request %.0f\n",
                cold.qps, keepalive.qps, per_request.qps);
    Require(keepalive.qps > cold.qps, "warm: cache hits beat the cold pass");
    Require(keepalive.qps > per_request.qps,
            "warm: keep-alive beats connection-per-request");
    DrainAndStop(&frontend);
  }
  serve::FrontendConfig limited;
  limited.http.rate_limit.tokens_per_second = 200;
  limited.http.rate_limit.burst = 16;
  serve::ExtractionFrontend frontend(service.get(), limited);
  Status started = frontend.Start();
  if (!started.ok()) Fail("rate-limited frontend start failed", started);
  const int burst = smoke ? 200 : 500;
  const HttpRun run = RunHttp(frontend.port(), stream, kClients, burst,
                              false, service.get());
  const net::HttpServerStats http = DrainAndStop(&frontend);
  EmitHttp("ratelimited", burst, run, http.rate_limited);
  Require(run.transport_errors == 0, "ratelimited: no transport errors");
  Require(run.count(429) > 0 && run.count(429) == http.rate_limited,
          "ratelimited: 429s seen, as many as the server's rate_limited "
          "counter");
  Require(run.count(200) + run.count(429) == burst,
          "ratelimited: 200s + 429s == burst");
  service->Stop();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool persist = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--persist") == 0) {
      persist = true;
    } else {
      std::fprintf(stderr, "usage: serve_bench [--smoke] [--persist]\n");
      return 2;
    }
  }
  if (smoke) g_mode = "smoke";
  // Stage and request histograms are recorded only when obs is on.
  obs::SetEnabled(true);
  const Fixture fixture = Train(smoke);
  RegistrySweep(fixture, smoke);
  FaultBurst(fixture, smoke);
  Traffic(fixture, smoke);
  Loopback(fixture, smoke);
  std::filesystem::remove_all(fixture.store);

  if (persist && !g_bench.Persist()) return 1;
  if (g_violations > 0) {
    std::fprintf(stderr, "%d invariant(s) violated\n", g_violations);
    return 1;
  }
  std::fprintf(stderr, "all serve_bench invariants hold\n");
  return 0;
}
