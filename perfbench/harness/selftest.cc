// The benchmark's own tests:
//   - inputs are a pure function of the seed: the same seed gives identical
//     bytes, a different seed different bytes (the batch corpora);
//   - the tail-percentile rule picks the highest percentile that has at
//     least 10 samples beyond it.
//
// Build and run:
//   cmake --build .bench_build --target perfbench_selftest
//   .bench_build/perfbench_selftest

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "harness/stats.h"
#include "harness/workload_inputs.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::vector<double> OneTo(size_t n) {
  std::vector<double> out;
  for (size_t i = n; i >= 1; --i) out.push_back(static_cast<double>(i));
  return out;
}

void TestTailPercentile() {
  using perfbench::HighestSupportedPercentile;
  std::optional<perfbench::TailPoint> tail = HighestSupportedPercentile(OneTo(1000));
  Expect(tail && tail->percentile == 99 && tail->value == 990 && tail->beyond == 10,
         "1000 samples: p99 (990) with exactly 10 beyond");
  tail = HighestSupportedPercentile(OneTo(999));
  Expect(tail && tail->percentile == 95 && tail->value == 950,
         "999 samples: p99 has 9 beyond, so p95");
  tail = HighestSupportedPercentile(OneTo(10000));
  Expect(tail && tail->percentile == 99.9 && tail->beyond == 10,
         "10000 samples: p99.9");
  tail = HighestSupportedPercentile(OneTo(20));
  Expect(tail && tail->percentile == 50 && tail->value == 10,
         "20 samples: only the median qualifies");
  Expect(!HighestSupportedPercentile(OneTo(19)).has_value(),
         "19 samples: no percentile has 10 beyond it");
  Expect(!HighestSupportedPercentile({}).has_value(), "no samples");
}

void TestSeededInputs() {
  using namespace perfbench;  // NOLINT(build/namespaces)
  const uint64_t a = BatchInputDigest(MakeBatchCorpora(1));
  Expect(a == BatchInputDigest(MakeBatchCorpora(1)),
         "batch corpus: same seed, identical bytes");
  Expect(a != BatchInputDigest(MakeBatchCorpora(2)),
         "batch corpus: different seed, different bytes");

}

}  // namespace

int main() {
  TestTailPercentile();
  TestSeededInputs();
  if (g_failures > 0) {
    std::printf("%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all perfbench self-tests passed\n");
  return 0;
}
