#include "harness/workload_inputs.h"

#include "harness/stats.h"

namespace perfbench {

uint64_t MixSeed(uint64_t seed) {
  // SplitMix64 finalizer.
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) & 0xFFFFFFFFFFFFULL;
}

std::vector<ceres::synth::Corpus> MakeBatchCorpora(uint64_t seed) {
  std::vector<ceres::synth::Corpus> corpora;
  for (uint64_t crawl = 0; crawl < kBatchCrawls; ++crawl) {
    corpora.push_back(ceres::synth::MakeLongTailCorpus(
        kBatchScale, MixSeed(seed ^ (crawl * 0x9E3779B97F4A7C15ULL))));
  }
  return corpora;
}

uint64_t BatchInputDigest(const std::vector<ceres::synth::Corpus>& corpora) {
  uint64_t digest = Fnv1a("batch");
  for (const ceres::synth::Corpus& corpus : corpora) {
    for (const ceres::synth::SyntheticSite& site : corpus.sites) {
      digest = Fnv1a(site.name, digest);
      for (const ceres::synth::GeneratedPage& page : site.pages) {
        digest = Fnv1a(page.html, digest);
      }
    }
    digest = Fnv1a(std::to_string(corpus.seed_kb.num_entities()), digest);
    digest = Fnv1a(std::to_string(corpus.seed_kb.num_triples()), digest);
  }
  return digest;
}

}  // namespace perfbench
