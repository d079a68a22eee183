// ceres_httpd — the network serving front-end over a sharded extraction
// tier.
//
// Builds an SWDE-style movie corpus, trains a per-site extractor offline
// (the regular CERES pipeline), publishes each model into the sharded
// service's per-shard stores, then serves extraction over HTTP/1.1:
//
//   POST /extract?site=S   body: page HTML  ->  extraction JSON
//   GET  /healthz /metrics /stats
//   POST /admin/invalidate?site=S   POST /admin/drain
//
// This is the one serving driver. Requests go through
// ShardedExtractionService: --shards independent model registries and
// worker pools partitioned by stable site hash, fronted by an exact page
// cache — a byte-identical resend of a page of the same site skips parse
// and inference entirely.
//
// Prints "LISTENING <port>" on stdout once ready (machine-readable for
// drivers). Exits on SIGINT/SIGTERM or POST /admin/drain, in both cases
// through the graceful drain path: stop accepting, finish and flush
// every in-flight request, then stop. Final stats print on exit.
//
// Usage:
//   ceres_httpd [--port 0] [--shards 2] [--threads 4] [--sites 3]
//               [--scale 0.25] [--seed 100] [--store DIR]
//               [--rate N] [--burst N] [--cache-mb N]
//               [--no-cache] [--verbose]

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "dom/html_parser.h"
#include "obs/metrics.h"
#include "serve/http_frontend.h"
#include "serve/sharded_service.h"
#include "synth/corpora.h"
#include "util/logging.h"

namespace {

using namespace ceres;  // NOLINT(build/namespaces)

struct Options {
  uint16_t port = 0;
  int shards = 2;
  int threads = 4;
  size_t sites = 3;
  double scale = 0.25;
  uint64_t seed = 100;
  std::string store;
  double rate = 0.0;  // tokens/second per client; 0 = unlimited
  double burst = 16.0;
  size_t cache_mb = 32;
  bool no_cache = false;
  bool verbose = false;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: ceres_httpd [--port N] [--shards N] [--threads N]\n"
               "  [--sites N] [--scale X] [--seed N] [--store DIR]\n"
               "  [--rate N] [--burst N] [--cache-mb N]\n"
               "  [--no-cache] [--verbose]\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--port" && next(&value)) {
      options->port =
          static_cast<uint16_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (arg == "--shards" && next(&value)) {
      options->shards =
          static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
    } else if (arg == "--threads" && next(&value)) {
      options->threads =
          static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
    } else if (arg == "--sites" && next(&value)) {
      options->sites =
          static_cast<size_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (arg == "--scale" && next(&value)) {
      options->scale = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--seed" && next(&value)) {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--store" && next(&value)) {
      options->store = value;
    } else if (arg == "--rate" && next(&value)) {
      options->rate = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--burst" && next(&value)) {
      options->burst = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--cache-mb" && next(&value)) {
      options->cache_mb =
          static_cast<size_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (arg == "--no-cache") {
      options->no_cache = true;
    } else if (arg == "--verbose") {
      options->verbose = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return options->shards >= 1 && options->threads >= 1 &&
         options->sites >= 1;
}

volatile std::sig_atomic_t g_signal = 0;
void OnSignal(int) { g_signal = 1; }

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }
  if (options.verbose) SetLogLevel(LogLevel::kInfo);
  obs::SetEnabled(true);
  if (options.store.empty()) {
    options.store = (std::filesystem::temp_directory_path() /
                     "ceres_httpd_store").string();
    std::filesystem::remove_all(options.store);
  }

  // --- Offline: corpus, per-site training, publish into shards. ----------
  synth::Corpus corpus = synth::MakeSwdeCorpus(
      synth::SwdeVertical::kMovie, options.scale, options.seed);
  const size_t num_sites = std::min(options.sites, corpus.sites.size());

  serve::ShardedServiceConfig config;
  config.num_shards = options.shards;
  config.service.worker_threads = options.threads;
  config.registry.root_dir = options.store;
  config.cache.enabled = !options.no_cache;
  config.cache.max_bytes = options.cache_mb << 20;
  serve::ShardedExtractionService service(corpus.seed_kb.ontology(),
                                          config);

  size_t published = 0;
  for (size_t s = 0; s < num_sites; ++s) {
    const synth::SyntheticSite& site = corpus.sites[s];
    std::vector<DomDocument> pages;
    for (const synth::GeneratedPage& page : site.pages) {
      Result<DomDocument> doc = ParseHtml(page.html);
      if (!doc.ok()) {
        std::fprintf(stderr, "generator produced unparseable page: %s\n",
                     doc.status().ToString().c_str());
        return 1;
      }
      pages.push_back(std::move(doc).value());
    }
    PipelineConfig pipeline_config;
    for (size_t i = 0; i < pages.size(); i += 2) {
      pipeline_config.annotation_pages.push_back(
          static_cast<PageIndex>(i));
    }
    pipeline_config.extraction_pages = pipeline_config.annotation_pages;
    Result<PipelineResult> trained =
        RunPipeline(pages, corpus.seed_kb, pipeline_config);
    if (!trained.ok() || trained->models.empty()) {
      std::fprintf(stderr, "site %s: training produced no model\n",
                   site.name.c_str());
      continue;
    }
    Result<int64_t> version =
        service.Publish(site.name, trained->models.front().model);
    if (!version.ok()) {
      std::fprintf(stderr, "site %s: publish failed: %s\n",
                   site.name.c_str(), version.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "site %-24s model v%lld published (shard %zu)\n",
                 site.name.c_str(), static_cast<long long>(*version),
                 service.ShardOf(site.name));
    ++published;
  }
  if (published == 0) {
    std::fprintf(stderr, "no site trained a model; nothing to serve\n");
    return 1;
  }

  Status started = service.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "service start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  net::HttpServerConfig http_config;
  http_config.port = options.port;
  http_config.rate_limit.tokens_per_second = options.rate;
  http_config.rate_limit.burst = options.burst;
  serve::ExtractionFrontend frontend(&service, http_config);
  started = frontend.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "frontend start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::printf("LISTENING %u\n", frontend.port());
  std::fflush(stdout);

  // Park until a drain is requested over HTTP or by signal. The wait has
  // a short deadline per iteration so signals are observed promptly.
  while (g_signal == 0 && !frontend.drain_requested()) {
    frontend.WaitForDrainRequest(
        Deadline::After(std::chrono::milliseconds(200)));
  }

  std::fprintf(stderr, "draining...\n");
  Status drained =
      frontend.Drain(Deadline::After(std::chrono::seconds(10)));
  if (!drained.ok()) {
    std::fprintf(stderr, "drain: %s\n", drained.ToString().c_str());
  }
  const net::HttpServerStats http = frontend.server_stats();
  frontend.Stop();
  service.Stop();

  const serve::ShardedServiceStats stats = service.stats();
  int64_t completed = 0;
  int64_t shed = 0;
  for (const serve::ServiceStats& per_shard : stats.per_shard) {
    completed += per_shard.completed;
    shed += per_shard.total_shed();
  }
  std::fprintf(stderr,
               "http: requests %lld responses %lld rate_limited %lld "
               "parse_errors %lld drained %lld\n",
               static_cast<long long>(http.requests),
               static_cast<long long>(http.responses),
               static_cast<long long>(http.rate_limited),
               static_cast<long long>(http.parse_errors),
               static_cast<long long>(http.drained));
  std::fprintf(stderr,
               "service: completed %lld shed %lld  cache: hits %lld "
               "misses %lld entries %zu\n",
               static_cast<long long>(completed),
               static_cast<long long>(shed),
               static_cast<long long>(stats.cache.hits),
               static_cast<long long>(stats.cache.misses),
               stats.cache.entries);
  return drained.ok() ? 0 : 1;
}
