#include "harness/host_probe.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "harness/stats.h"

namespace perfbench {

namespace {

constexpr int kFeatures = 400;
constexpr int kClasses = 22;
constexpr int kExamples = 1500;
constexpr int kEntriesPerExample = 30;

/// Fixed examples and parameters of the probe's training problem.
struct ProbeProblem {
  /// kExamples x kEntriesPerExample (feature, value) pairs, sorted by
  /// feature within an example.
  std::vector<std::pair<int32_t, double>> entries;
  std::vector<int32_t> labels;
  std::vector<double> weights, gradient;

  ProbeProblem()
      : weights(kClasses * (kFeatures + 1), 1e-3),
        gradient(weights.size(), 0.0) {
    uint64_t state = 0x9E3779B97F4A7C15ULL;
    auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    for (int e = 0; e < kExamples; ++e) {
      const size_t begin = entries.size();
      for (int j = 0; j < kEntriesPerExample; ++j) {
        entries.emplace_back(static_cast<int32_t>(next() % kFeatures),
                             1.0 + static_cast<double>(next() % 4));
      }
      std::sort(entries.begin() + static_cast<std::ptrdiff_t>(begin),
                entries.end());
      labels.push_back(static_cast<int32_t>(next() % kClasses));
    }
  }

  /// One loss-and-gradient evaluation followed by a small step, so the
  /// weights (and the exp/log inputs) stay in the same range run to run.
  double Step() {
    std::fill(gradient.begin(), gradient.end(), 0.0);
    constexpr int kStride = kFeatures + 1;
    double loss = 0;
    double logits[kClasses];
    for (int e = 0; e < kExamples; ++e) {
      const auto* first = entries.data() + e * kEntriesPerExample;
      const auto* last = first + kEntriesPerExample;
      double max_logit = -1e300;
      for (int k = 0; k < kClasses; ++k) {
        const double* wk = weights.data() + k * kStride;
        double dot = wk[kFeatures];
        for (const auto* it = first; it != last; ++it) {
          dot += wk[it->first] * it->second;
        }
        logits[k] = dot;
        max_logit = std::max(max_logit, dot);
      }
      double sum = 0;
      for (double& v : logits) sum += v = std::exp(v - max_logit);
      loss -= std::log(std::max(logits[labels[e]] / sum, 1e-300));
      for (int k = 0; k < kClasses; ++k) {
        const double err = logits[k] / sum - (k == labels[e] ? 1.0 : 0.0);
        double* gk = gradient.data() + k * kStride;
        for (const auto* it = first; it != last; ++it) {
          gk[it->first] += err * it->second;
        }
        gk[kFeatures] += err;
      }
    }
    for (size_t i = 0; i < weights.size(); ++i) {
      weights[i] = 1e-3 + 0.5 * (weights[i] - 1e-3) - 1e-7 * gradient[i];
    }
    return loss;
  }
};

volatile double g_probe_sink = 0;

}  // namespace

void HostProbe::Run(int slices) {
  thread_local ProbeProblem problem;
  for (int i = 0; i < slices; ++i) {
    const Clock::time_point start = Clock::now();
    g_probe_sink = g_probe_sink + problem.Step();
    seconds_ += SecondsSince(start);
    ++slices_;
  }
}

HostSampler::HostSampler()
    : thread_([this](std::stop_token stop) {
        while (!stop.stop_requested()) probe_.Run();
      }) {}

const HostProbe& HostSampler::Stop() {
  if (thread_.joinable()) {
    thread_.request_stop();
    thread_.join();
  }
  return probe_;
}

double HostProbe::Scale() const {
  return seconds_ > 0
             ? kReferenceSliceSeconds * static_cast<double>(slices_) / seconds_
             : 1.0;
}

}  // namespace perfbench
