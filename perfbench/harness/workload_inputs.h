#ifndef PERFBENCH_HARNESS_WORKLOAD_INPUTS_H_
#define PERFBENCH_HARNESS_WORKLOAD_INPUTS_H_

// The generator side of every workload. Everything here is a pure
// function of the --seed value: the program under test only ever receives
// the generated HTML (and the seed KB), never the world it came from.

#include <cstdint>
#include <vector>

#include "synth/corpora.h"

namespace perfbench {

/// The seed reserved for performance claims. Tuning and development runs
/// use other seeds; a claimed gain must also hold on this one.
inline constexpr uint64_t kHeldOutSeed = 20181;

/// Decorrelates adjacent --seed values before they reach the generator.
uint64_t MixSeed(uint64_t seed);

// ---------------------------------------------------------------------------
// Batch workloads: the 33-site long-tail corpus of the paper's §5.5.
// ---------------------------------------------------------------------------

/// Corpus scale of both batch workloads (456 pages over 33 sites). Every
/// site keeps at least 8 pages, so the skewed size distribution and the
/// three degenerate sites survive the reduction.
inline constexpr double kBatchScale = 0.25;
/// Independent crawls (each its own world, seed KB and sites) per batch
/// run. Much of a crawl's cost and fact count is drawn once per world, so
/// two worlds halve the seed-to-seed variance of a run's figures.
inline constexpr int kBatchCrawls = 2;

std::vector<ceres::synth::Corpus> MakeBatchCorpora(uint64_t seed);

/// Digest of every generated byte the batch program receives.
uint64_t BatchInputDigest(const std::vector<ceres::synth::Corpus>& corpora);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOAD_INPUTS_H_
