#include "harness/stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

/// Nearest rank (1-based) of percentile p among n samples. The epsilon
/// keeps p * n / 100 from rounding up past an exact rank (99.9% of 10000
/// evaluates to 9990.000000000002).
size_t NearestRank(double p, size_t n) {
  return static_cast<size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<TailPoint> HighestSupportedPercentile(
    std::vector<double> samples, size_t min_beyond) {
  static constexpr double kLadder[] = {99.9, 99, 95, 90, 75, 50};
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  for (const double p : kLadder) {
    const size_t rank = NearestRank(p, n);
    if (rank == 0 || rank > n) continue;
    const size_t beyond = n - rank;
    if (beyond >= min_beyond) {
      return TailPoint{p, samples[rank - 1], beyond};
    }
  }
  return std::nullopt;
}

double PeakRssMb(bool include_children) {
  struct rusage self {};
  getrusage(RUSAGE_SELF, &self);
  double kb = static_cast<double>(self.ru_maxrss);
  if (include_children) {
    struct rusage children {};
    getrusage(RUSAGE_CHILDREN, &children);
    kb += static_cast<double>(children.ru_maxrss);
  }
  return kb / 1024.0;
}

uint64_t Fnv1a(std::string_view bytes, uint64_t state) {
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= 1099511628211ULL;
  }
  return state;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // Prefer the shortest form that reads back identically.
  for (int precision = 6; precision < 17; ++precision) {
    char shorter[40];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
    if (std::strtod(shorter, nullptr) == value) return shorter;
  }
  return buf;
}

}  // namespace perfbench
