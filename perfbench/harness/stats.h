#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

// Measurement helpers shared by every workload: clocks, order statistics,
// the tail-percentile rule, peak memory, digests, and the run result that
// main.cc prints.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

double Median(std::vector<double> values);

/// A percentile together with how many samples lie beyond it.
struct TailPoint {
  double percentile = 0;
  double value = 0;
  size_t beyond = 0;
};

/// The highest percentile of the fixed ladder {99.9, 99, 95, 90, 75, 50}
/// that has at least `min_beyond` samples ranked above it (nearest rank),
/// so a reported tail is never an extrapolation from a handful of
/// samples. Empty when not even the median qualifies.
std::optional<TailPoint> HighestSupportedPercentile(
    std::vector<double> samples, size_t min_beyond = 10);

/// Peak resident set in MiB of this process; with `include_children`, plus
/// the largest reaped child's peak (getrusage reports only the largest).
double PeakRssMb(bool include_children);

/// FNV-1a 64 over `bytes`, continuing from `state`.
uint64_t Fnv1a(std::string_view bytes, uint64_t state = 1469598103934665603ULL);

/// One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main.cc.
struct RunResult {
  /// Output checks that failed; any entry fails the run.
  std::vector<std::string> check_failures;
  /// Operations attempted and failed in the timed phase (site runs).
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Run stamp fields: fixed thread counts, sample counts, corpus size.
  std::vector<std::pair<std::string, std::string>> stamp;
  /// Human-readable traced-run report (layer reconciliation).
  std::string report;

  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Stamp(const std::string& key, const std::string& value) {
    stamp.emplace_back(key, value);
  }
};

/// Minimal JSON string escaping for the run record.
std::string JsonString(std::string_view s);
/// Shortest round-trip rendering of a double ("%.17g", trimmed).
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
