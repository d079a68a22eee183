#include "harness/layer_report.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

/// Names of every per-layer metric, in report order, with units.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"dom.parse_us", "us"},
      {"dom.parse_calls", "count"},
      {"cluster.us", "us"},
      {"cluster.clusters", "count"},
      {"core.topic.us", "us"},
      {"core.topic.hit_ratio", "ratio"},
      {"core.annotate.us", "us"},
      {"core.annotate.annotations", "count"},
      {"core.annotate.page_ratio", "ratio"},
      {"core.train.us", "us"},
      {"core.train.critical_path_us", "us"},
      {"core.train.share", "ratio"},
      {"core.extract.us", "us"},
      {"core.extract.page_us", "us"},
      {"core.skipped_clusters", "count"},
      {"ml.features", "count"},
      {"ml.classes", "count"},
      {"ml.params", "count"},
      {"kb.mention_lookups", "count"},
      {"kb.mention_hit_ratio", "ratio"},
      {"kb.fuzzy_lookups", "count"},
      {"fusion.us", "us"},
      {"fusion.facts_in", "count"},
      {"fusion.facts_out", "count"},
      {"dist.shard_us_p50", "us"},
      {"dist.shard_us_max", "us"},
      {"dist.retries", "count"},
      {"dist.checkpoint_bytes", "bytes"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.unexplained_share", "ratio"},
  };
  return kNames;
}

}  // namespace

LayerMetrics::LayerMetrics() {
  for (const auto& [name, unit] : LayerMetricNames()) {
    metrics_.push_back(Metric{name, 0.0, unit});
  }
  set_.assign(metrics_.size(), false);
}

void LayerMetrics::Set(const std::string& name, double value) {
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (metrics_[i].name == name) {
      metrics_[i].value = value;
      set_[i] = true;
      return;
    }
  }
  throw std::out_of_range("unknown per-layer metric " + name);
}

void LayerMetrics::AppendTo(RunResult* out) const {
  std::string unavailable;
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out->metrics.push_back(metrics_[i]);
    if (set_[i]) continue;
    if (!unavailable.empty()) unavailable += ',';
    unavailable += metrics_[i].name;
  }
  out->Stamp("layers_unavailable", unavailable);
}

int64_t MaxSpanMicros(const ceres::obs::TraceTree& tree, const std::string& name) {
  const std::string json = tree.ToJson();
  const std::string needle = "\"name\":\"" + name + "\"";
  int64_t best = 0;
  for (size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + needle.size())) {
    const size_t max_at = json.find("\"max_us\":", at);
    if (max_at == std::string::npos) break;
    best = std::max<int64_t>(best, std::stoll(json.substr(max_at + 9, 24)));
  }
  return best;
}

void ReconciliationReport::Add(const std::string& layer, double per_call_us,
                               double calls) {
  rows_.push_back(Row{layer, per_call_us, calls});
}

void ReconciliationReport::Unavailable(const std::string& what,
                                       const std::string& reason) {
  unavailable_.emplace_back(what, reason);
}

double ReconciliationReport::UnexplainedShare() const {
  if (base_us_ <= 0) return 0;
  double explained = 0;
  for (const Row& row : rows_) explained += row.per_call_us * row.calls;
  return 1.0 - explained / base_us_;
}

std::string ReconciliationReport::Render(double wall_us) const {
  std::string out = "layer reconciliation (cost per call x calls):\n";
  char line[256];
  std::snprintf(line, sizeof(line), "  %-22s %14s %12s %14s %8s\n", "layer",
                "us/call", "calls", "total_us", "share");
  out += line;
  for (const Row& row : rows_) {
    const double total = row.per_call_us * row.calls;
    std::snprintf(line, sizeof(line), "  %-22s %14.2f %12.0f %14.0f %7.1f%%\n",
                  row.layer.c_str(), row.per_call_us, row.calls, total,
                  base_us_ > 0 ? 100.0 * total / base_us_ : 0.0);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  base: %s = %.0f us (wall %.0f us); unexplained %.1f%%\n",
                base_name_.c_str(), base_us_, wall_us,
                100.0 * UnexplainedShare());
  out += line;
  for (const auto& [what, reason] : unavailable_) {
    out += "  unavailable: " + what + " (" + reason + ")\n";
  }
  return out;
}

}  // namespace perfbench
