#ifndef PERFBENCH_HARNESS_LAYER_REPORT_H_
#define PERFBENCH_HARNESS_LAYER_REPORT_H_

// Per-layer metrics of the traced run and the layer-reconciliation report.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/stats.h"
#include "obs/trace.h"

namespace perfbench {

/// The fixed per-layer metric set. Every traced run reports all of them.
/// A metric the workload cannot reach (its layer does not run, or runs in
/// a forked worker) reads 0 and is named in the run stamp's
/// layers_unavailable list.
class LayerMetrics {
 public:
  LayerMetrics();
  /// Throws std::out_of_range for a name outside the fixed set.
  void Set(const std::string& name, double value);
  void AppendTo(RunResult* out) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<bool> set_;
};

/// Largest single span (max_us) over every node called `name` in `tree`.
int64_t MaxSpanMicros(const ceres::obs::TraceTree& tree, const std::string& name);

/// Layer reconciliation: each layer's cost per call times its call count,
/// summed and compared with the workload's own measured time; what the
/// layers do not account for is the unexplained share.
class ReconciliationReport {
 public:
  ReconciliationReport(std::string base_name, double base_us)
      : base_name_(std::move(base_name)), base_us_(base_us) {}

  void Add(const std::string& layer, double per_call_us, double calls);
  void Unavailable(const std::string& what, const std::string& reason);
  /// 1 - (sum of layer totals) / base; negative when layers overlap.
  double UnexplainedShare() const;
  std::string Render(double wall_us) const;

 private:
  struct Row {
    std::string layer;
    double per_call_us;
    double calls;
  };
  std::string base_name_;
  double base_us_;
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, std::string>> unavailable_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LAYER_REPORT_H_
