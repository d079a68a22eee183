#include "serve/http_frontend.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ceres::serve {

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

net::HttpResponse JsonResponse(int status, std::string body) {
  net::HttpResponse response;
  response.status = status;
  response.headers.push_back({"content-type", "application/json"});
  response.body = std::move(body);
  return response;
}

net::HttpResponse TextResponse(int status, std::string body) {
  net::HttpResponse response;
  response.status = status;
  response.headers.push_back({"content-type", "text/plain"});
  response.body = std::move(body);
  return response;
}

}  // namespace

int HttpStatusForCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kFailedPrecondition:
      return 409;
    case StatusCode::kResourceExhausted:
      return 503;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kCancelled:
      return 499;
    case StatusCode::kInternal:
    case StatusCode::kDataLoss:
      return 500;
  }
  return 500;
}

std::string EncodeServeResultJson(const std::string& site,
                                  const ServeResult& result) {
  std::string out = StrCat("{\"site\":\"", JsonEscape(site), "\"");
  if (result.status.ok()) {
    out += ",\"status\":\"ok\",\"triples\":[";
    bool first = true;
    for (const Extraction& triple : result.triples) {
      if (!first) out += ',';
      first = false;
      out += StrCat("{\"subject\":\"", JsonEscape(triple.subject),
                    "\",\"predicate\":", triple.predicate, ",\"object\":\"",
                    JsonEscape(triple.object), "\",\"confidence\":",
                    FormatDouble(triple.confidence), "}");
    }
    out += "]";
  } else {
    out += StrCat(",\"status\":\"",
                  JsonEscape(result.status.ToString()), "\"");
  }
  const ServeDiagnostics& diag = result.diagnostics;
  out += StrCat(",\"shed_cause\":\"", ShedCauseName(diag.shed_cause),
                "\",\"near_dup_hit\":", diag.near_dup_hit ? "true" : "false",
                ",\"model_cache_hit\":",
                diag.model_cache_hit ? "true" : "false",
                ",\"model_version\":", diag.model_version, "}");
  return out;
}

ExtractionFrontend::ExtractionFrontend(ShardedExtractionService* service,
                                       net::HttpServerConfig config)
    : service_(service), config_(std::move(config)) {}

ExtractionFrontend::~ExtractionFrontend() { Stop(); }

Status ExtractionFrontend::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  server_ = std::make_unique<net::HttpServer>(
      [this](net::HttpRequest request,
             net::HttpServer::Responder responder) {
        Route(std::move(request), std::move(responder));
      },
      config_);
  Status status = server_->Start();
  if (!status.ok()) {
    Stop();
    return status;
  }
  started_ = true;
  return Status::Ok();
}

Status ExtractionFrontend::Drain(Deadline deadline) {
  if (server_ == nullptr) return Status::Ok();
  return server_->Drain(deadline);
}

void ExtractionFrontend::Stop() {
  if (server_ != nullptr) server_->Shutdown();
  {
    MutexLock lock(mu_);
    stopping_ = true;
    drain_cv_.notify_all();
  }
  started_ = false;
}

bool ExtractionFrontend::drain_requested() const {
  MutexLock lock(mu_);
  return drain_requested_;
}

void ExtractionFrontend::WaitForDrainRequest(Deadline deadline) {
  UniqueMutexLock lock(mu_);
  while (!drain_requested_ && !stopping_) {
    if (deadline.expired()) return;
    drain_cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
}

void ExtractionFrontend::Route(net::HttpRequest request,
                               net::HttpServer::Responder responder) {
  const std::string_view path = request.Path();
  if (path == "/healthz") {
    responder.Send(TextResponse(200, "ok\n"));
    return;
  }
  if (path == "/metrics") {
    responder.Send(TextResponse(
        200, obs::MetricsRegistry::Default().ToPrometheusText()));
    return;
  }
  if (path == "/stats") {
    const ShardedServiceStats stats = service_->stats();
    int64_t submitted = 0;
    int64_t completed = 0;
    int64_t shed = 0;
    for (const ServiceStats& per_shard : stats.per_shard) {
      submitted += per_shard.submitted;
      completed += per_shard.completed;
      shed += per_shard.total_shed();
    }
    const net::HttpServerStats http = server_->stats();
    responder.Send(JsonResponse(
        200,
        StrCat("{\"shards\":", stats.per_shard.size(),
               ",\"submitted\":", submitted, ",\"completed\":", completed,
               ",\"shed\":", shed,
               ",\"near_dup_served\":", stats.cache.hits,
               ",\"cache\":{\"hits\":", stats.cache.hits,
               ",\"misses\":", stats.cache.misses,
               ",\"entries\":", stats.cache.entries,
               ",\"bytes\":", stats.cache.bytes,
               "},\"http\":{\"requests\":", http.requests,
               ",\"responses\":", http.responses,
               ",\"rate_limited\":", http.rate_limited,
               ",\"parse_errors\":", http.parse_errors, "}}")));
    return;
  }
  if (path == "/admin/invalidate") {
    if (request.method != "POST") {
      responder.Send(TextResponse(405, "POST required\n"));
      return;
    }
    const auto params = net::ParseQuery(request.Query());
    const auto site = params.find("site");
    if (site == params.end() || site->second.empty()) {
      responder.Send(TextResponse(400, "missing site parameter\n"));
      return;
    }
    service_->Invalidate(site->second);
    responder.Send(JsonResponse(
        200, StrCat("{\"invalidated\":\"", JsonEscape(site->second),
                    "\"}")));
    return;
  }
  if (path == "/admin/drain") {
    if (request.method != "POST") {
      responder.Send(TextResponse(405, "POST required\n"));
      return;
    }
    {
      MutexLock lock(mu_);
      drain_requested_ = true;
      drain_cv_.notify_all();
    }
    responder.Send(JsonResponse(202, "{\"draining\":true}"));
    return;
  }
  if (path == "/extract") {
    HandleExtract(std::move(request), std::move(responder));
    return;
  }
  responder.Send(TextResponse(404, "unknown path\n"));
}

void ExtractionFrontend::HandleExtract(
    net::HttpRequest request, net::HttpServer::Responder responder) {
  if (request.method != "POST") {
    responder.Send(TextResponse(405, "POST required\n"));
    return;
  }
  const auto params = net::ParseQuery(request.Query());
  const auto site = params.find("site");
  if (site == params.end() || site->second.empty()) {
    responder.Send(TextResponse(400, "missing site parameter\n"));
    return;
  }
  ServeRequest serve_request;
  serve_request.site = site->second;
  serve_request.html = std::move(request.body);
  const auto url = params.find("url");
  if (url != params.end()) serve_request.url = url->second;

  // The hook holds only the Responder and the site, never `this`: a shard
  // may resolve the request after the front-end is gone, and the Responder
  // then drops the response and counts it.
  (void)service_->Submit(
      std::move(serve_request),
      [responder = std::move(responder),
       site = site->second](const ServeResult& result) {
        responder.Send(JsonResponse(HttpStatusForCode(result.status.code()),
                                    EncodeServeResultJson(site, result)));
      });
}

}  // namespace ceres::serve
