#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness/stats.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  /// Length of the timed phase.
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Per-run scratch directory (dist checkpoints), created and
  /// removed by main.cc.
  std::string scratch_dir;
};

RunResult RunBatchLongtail(const RunOptions& options);
RunResult RunBatchSharded(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
