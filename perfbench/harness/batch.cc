// batch_longtail and batch_sharded: long-tail crawls from raw HTML to fused
// facts, in one process (ParseHtml -> RunPipeline per site ->
// fusion::FuseExtractions) or through dist::RunDistributedExtraction.

#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <unordered_set>

#include "core/pipeline.h"
#include "dist/coordinator.h"
#include "dom/html_parser.h"
#include "fusion/knowledge_fusion.h"
#include "harness/host_probe.h"
#include "harness/layer_report.h"
#include "harness/workload_inputs.h"
#include "harness/workloads.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/fuzzy_matcher.h"
#include "text/normalize.h"

namespace perfbench {

namespace {

using namespace ceres;  // NOLINT(build/namespaces)

/// batch_longtail runs the sites one after another, each RunPipeline with
/// this PipelineConfig::parallel thread count (the program's own fan-out
/// over clusters, or over pages for single-cluster sites). Output is
/// identical at any thread count, so batch_sharded's Sequential workers
/// must still produce the same fused facts.
constexpr int kPipelineThreads = 1;
constexpr int kDistWorkers = 2;
/// Table 8's average precision in the paper (EXPERIMENTS.md), the floor
/// the fused facts must clear.
constexpr double kPrecisionFloor = 0.83;
/// Untraced runs take at least this many passes; pages_per_ref_s is their
/// median.
constexpr size_t kMinPasses = 2;
/// Set-up (corpus generation) takes about a tenth of a second, so it is
/// repeated and its median reported.
constexpr int kSetupRepetitions = 21;
/// Host probe slices after each set-up repetition (about 30 ms).
constexpr int kSetupProbeSlices = 10;

/// One generated long-tail crawl and, for batch_sharded, its dist input.
struct Crawl {
  explicit Crawl(synth::Corpus corpus_in) : corpus(std::move(corpus_in)) {}
  synth::Corpus corpus;
  std::vector<dist::ShardSite> shard_sites;
};

struct BatchSetup {
  std::vector<std::unique_ptr<Crawl>> crawls;
  int64_t pages = 0;
  int64_t sites = 0;
};

std::unique_ptr<BatchSetup> SetUp(uint64_t seed, bool sharded) {
  auto setup = std::make_unique<BatchSetup>();
  for (synth::Corpus& corpus : MakeBatchCorpora(seed)) {
    auto crawl = std::make_unique<Crawl>(std::move(corpus));
    for (const synth::SyntheticSite& site : crawl->corpus.sites) {
      setup->pages += static_cast<int64_t>(site.pages.size());
      ++setup->sites;
      if (!sharded) continue;
      dist::ShardSite shard_site;
      shard_site.site = site.name;
      for (const synth::GeneratedPage& page : site.pages) {
        shard_site.pages.push_back(RawPage{page.url, page.html});
      }
      crawl->shard_sites.push_back(std::move(shard_site));
    }
    setup->crawls.push_back(std::move(crawl));
  }
  return setup;
}

/// One untimed set-up (first-touch page faults, allocator growth), then
/// kSetupRepetitions timed ones, each followed by host probe slices; keeps
/// the last set-up. `*wall_s` is the median set-up time, `*ref_s` the same
/// in reference seconds.
std::unique_ptr<BatchSetup> TimedSetUp(uint64_t seed, bool sharded,
                                       double* wall_s, double* ref_s) {
  std::unique_ptr<BatchSetup> setup = SetUp(seed, sharded);
  std::vector<double> times;
  HostProbe probe;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    setup.reset();
    const Clock::time_point start = Clock::now();
    setup = SetUp(seed, sharded);
    times.push_back(SecondsSince(start));
    probe.Run(kSetupProbeSlices);
  }
  *wall_s = Median(times);
  *ref_s = *wall_s * probe.Scale();
  return setup;
}

struct SiteRun {
  Status status;
  PipelineResult result;
  /// Seconds from pass start until this site's extractions were out.
  double done_s = 0;
  /// Seconds this site's parse + pipeline took.
  double wall_s = 0;
  double pipeline_s = 0;
  double parse_us = 0;
  int64_t parse_calls = 0;
  std::unique_ptr<obs::TraceTree> trace;
};

/// One crawl's share of a pass.
struct CrawlPass {
  /// In-process only; batch_sharded sees no per-site detail.
  std::vector<SiteRun> sites;
  /// Seconds from pass start until this crawl's extractions were out.
  double done_s = 0;
  double fusion_s = 0;
  std::vector<fusion::SiteExtractions> extractions;
  fusion::FusionResult fused;
  dist::DistDiagnostics dist;
  int64_t failed_sites = 0;
};

/// Every crawl of the setup, processed back to back.
struct Pass {
  /// Without the host probe's slices.
  double wall_s = 0;
  /// In-process, slices between the sites on the pass's own thread (which
  /// tracked the host's slowdown of the pipeline best, better than a
  /// sampler thread); sharded, a HostSampler while the coordinator waits
  /// on the workers.
  HostProbe probe;
  std::vector<CrawlPass> crawls;
};

CrawlPass LongtailCrawl(const synth::Corpus& corpus, bool trace,
                        Clock::time_point pass_start, HostProbe* probe) {
  CrawlPass pass;
  pass.sites.resize(corpus.sites.size());
  for (size_t s = 0; s < corpus.sites.size(); ++s) {
    SiteRun& run = pass.sites[s];
    const Clock::time_point site_start = Clock::now();
    std::vector<DomDocument> docs;
    docs.reserve(corpus.sites[s].pages.size());
    for (const synth::GeneratedPage& page : corpus.sites[s].pages) {
      const Clock::time_point parse_start = Clock::now();
      Result<DomDocument> doc = ParseHtml(page.html);
      run.parse_us += SecondsSince(parse_start) * 1e6;
      ++run.parse_calls;
      if (!doc.ok()) {
        run.status = doc.status();
        break;
      }
      docs.push_back(std::move(doc).value());
    }
    if (run.status.ok()) {
      PipelineConfig config;
      config.parallel.threads = kPipelineThreads;
      if (trace) {
        run.trace = std::make_unique<obs::TraceTree>();
        config.trace = run.trace.get();
      }
      const Clock::time_point pipeline_start = Clock::now();
      Result<PipelineResult> result = RunPipeline(docs, corpus.seed_kb, config);
      run.pipeline_s = SecondsSince(pipeline_start);
      if (!result.ok()) {
        run.status = result.status();
      } else {
        run.result = std::move(result).value();
        if (run.result.diagnostics.run_deadline_expired) {
          run.status = Status::DeadlineExceeded("site run expired");
        }
      }
    }
    run.wall_s = SecondsSince(site_start);
    run.done_s = SecondsSince(pass_start);
    if (!run.status.ok()) ++pass.failed_sites;
    pass.extractions.push_back(
        fusion::SiteExtractions{corpus.sites[s].name, run.result.extractions});
    probe->Run();
  }
  const Clock::time_point fusion_start = Clock::now();
  pass.fused = fusion::FuseExtractions(pass.extractions,
                                       corpus.seed_kb.ontology());
  pass.fusion_s = SecondsSince(fusion_start);
  pass.done_s = SecondsSince(pass_start);
  return pass;
}

CrawlPass ShardedCrawl(const Crawl& crawl, const std::string& checkpoint_dir,
                       Clock::time_point pass_start) {
  CrawlPass pass;
  dist::DistConfig config;
  config.num_workers = kDistWorkers;
  config.checkpoint_dir = checkpoint_dir;
  std::filesystem::remove_all(checkpoint_dir);
  Result<dist::DistResult> result = dist::RunDistributedExtraction(
      crawl.shard_sites, crawl.corpus.seed_kb, crawl.corpus.seed_kb.ontology(),
      config);
  pass.done_s = SecondsSince(pass_start);
  std::filesystem::remove_all(checkpoint_dir);
  const int64_t sites = static_cast<int64_t>(crawl.shard_sites.size());
  if (!result.ok()) {
    pass.failed_sites = sites;
    return pass;
  }
  pass.extractions = std::move(result->site_extractions);
  pass.fused = std::move(result->fused);
  pass.dist = std::move(result->diagnostics);
  pass.failed_sites = sites - static_cast<int64_t>(pass.extractions.size());
  if (pass.dist.deadline_expired) {
    pass.failed_sites = std::max<int64_t>(1, pass.failed_sites);
  }
  return pass;
}

Pass RunPass(const BatchSetup& setup, bool sharded, bool trace,
             const std::string& checkpoint_dir) {
  Pass pass;
  std::optional<HostSampler> sampler;
  if (sharded) sampler.emplace();
  const Clock::time_point start = Clock::now();
  for (const std::unique_ptr<Crawl>& crawl : setup.crawls) {
    pass.crawls.push_back(
        sharded ? ShardedCrawl(*crawl, checkpoint_dir, start)
                : LongtailCrawl(crawl->corpus, trace, start, &pass.probe));
  }
  pass.wall_s = SecondsSince(start);
  if (sampler) {
    pass.probe = sampler->Stop();
  } else {
    pass.wall_s -= pass.probe.seconds();
  }
  return pass;
}

/// Byte image of a pass's fusion results: every triple field (score as its
/// IEEE bit pattern) and every site reliability, in output order.
uint64_t FusedDigest(const Pass& pass) {
  uint64_t digest = Fnv1a("fused");
  auto bits = [](double value) {
    uint64_t out = 0;
    std::memcpy(&out, &value, sizeof(out));
    return std::to_string(out);
  };
  for (const CrawlPass& crawl : pass.crawls) {
    for (const fusion::FusedTriple& triple : crawl.fused.triples) {
      std::string row = triple.subject + '\x1f' +
                        std::to_string(triple.predicate) + '\x1f' +
                        triple.object + '\x1f' + bits(triple.score) +
                        (triple.conflicting ? "c" : "-");
      for (const std::string& site : triple.sites) row += '\x1f' + site;
      digest = Fnv1a(row + '\n', digest);
    }
    for (const fusion::SiteReliability& site : crawl.fused.sites) {
      digest = Fnv1a(site.site + '\x1f' + bits(site.reliability) + '\x1f' +
                         std::to_string(site.triples) + '\n',
                     digest);
    }
    digest = Fnv1a("\x1e", digest);
  }
  return digest;
}

int64_t FusedFacts(const Pass& pass) {
  int64_t facts = 0;
  for (const CrawlPass& crawl : pass.crawls) {
    facts += static_cast<int64_t>(crawl.fused.triples.size());
  }
  return facts;
}

/// Fused facts of `fused` that the generator's world asserts, matching
/// names and aliases under the fusion pass's own normalization.
int64_t CorrectFacts(const synth::Corpus& corpus,
                     const fusion::FusionResult& fused) {
  const KnowledgeBase& world = corpus.world.kb;
  auto names = [&](EntityId id) {
    const Entity entity = world.entity(id);
    std::vector<std::string> out{std::string(entity.name)};
    for (std::string_view alias : entity.aliases) out.emplace_back(alias);
    return out;
  };
  std::unordered_set<std::string> truth;
  for (const Triple& triple : world.triples()) {
    const std::string predicate = std::to_string(triple.predicate);
    for (const std::string& subject : names(triple.subject)) {
      const std::string key_subject =
          StripTrailingYear(NormalizeText(subject)) + '\x1f' + predicate + '\x1f';
      for (const std::string& object : names(triple.object)) {
        truth.insert(key_subject + NormalizeText(object));
      }
    }
  }
  int64_t correct = 0;
  for (const fusion::FusedTriple& triple : fused.triples) {
    if (truth.count(triple.subject + '\x1f' + std::to_string(triple.predicate) +
                    '\x1f' + triple.object) > 0) {
      ++correct;
    }
  }
  return correct;
}

/// What a timed pass leaves behind once its full results are dropped.
struct PassSummary {
  /// Pass wall time, and the same in reference seconds.
  double wall_s = 0;
  double ref_s = 0;
  uint64_t digest = 0;
  int64_t failed_sites = 0;
  /// Per page: ms from pass start until its site's extractions were out.
  std::vector<double> page_done_ms;
};

PassSummary Summarize(const Pass& pass, const BatchSetup& setup) {
  PassSummary summary;
  summary.wall_s = pass.wall_s;
  summary.ref_s = pass.wall_s * pass.probe.Scale();
  summary.digest = FusedDigest(pass);
  for (size_t c = 0; c < pass.crawls.size(); ++c) {
    const CrawlPass& crawl = pass.crawls[c];
    const synth::Corpus& corpus = setup.crawls[c]->corpus;
    summary.failed_sites += crawl.failed_sites;
    for (size_t i = 0; i < corpus.sites.size(); ++i) {
      // Sharded results come back only when the whole dist run returns.
      const double done_s =
          i < crawl.sites.size() ? crawl.sites[i].done_s : crawl.done_s;
      summary.page_done_ms.insert(summary.page_done_ms.end(),
                                  corpus.sites[i].pages.size(), 1e3 * done_s);
    }
  }
  return summary;
}

/// Runs untraced passes until `seconds` have elapsed, stopping early when
/// the next pass would end past them by more than half its length (at
/// least kMinPasses). Keeps the first pass in full in `*first`; the others
/// are summarized and dropped, so peak memory does not depend on how many
/// passes fit.
std::vector<PassSummary> TimedPasses(double seconds, const BatchSetup& setup,
                                     bool sharded, const std::string& ckpt,
                                     Pass* first) {
  std::vector<PassSummary> passes;
  const Clock::time_point start = Clock::now();
  for (;;) {
    Pass pass = RunPass(setup, sharded, /*trace=*/false, ckpt);
    passes.push_back(Summarize(pass, setup));
    if (passes.size() == 1) *first = std::move(pass);
    const double elapsed = SecondsSince(start);
    if (passes.size() >= kMinPasses &&
        elapsed + passes.back().wall_s / 2 >= seconds) {
      break;
    }
  }
  return passes;
}

struct LayerTotals {
  double parse_us = 0, parse_calls = 0, clustering_us = 0, clusters = 0;
  double topic_us = 0, annotate_us = 0, train_us = 0, extract_us = 0;
  double train_critical_us = 0, pipeline_us = 0, site_wall_us = 0;
  double topic_pages = 0, annotation_pages = 0, annotated_pages = 0;
  double annotations = 0, skipped_clusters = 0, pages = 0;
  double models = 0, features = 0, classes = 0, params = 0;
  double fusion_us = 0, facts_in = 0, facts_out = 0, sites = 0;
  double retries = 0, checkpoint_bytes = 0;
};

LayerTotals SumLayers(const Pass& pass) {
  LayerTotals t;
  for (const CrawlPass& crawl : pass.crawls) {
    t.fusion_us += crawl.fusion_s * 1e6;
    t.facts_out += static_cast<double>(crawl.fused.triples.size());
    t.sites += static_cast<double>(crawl.extractions.size());
    t.retries += static_cast<double>(crawl.dist.retries);
    t.checkpoint_bytes += static_cast<double>(crawl.dist.checkpoint_bytes);
    for (const fusion::SiteExtractions& site : crawl.extractions) {
      for (const Extraction& e : site.extractions) {
        if (e.predicate != kNamePredicate && e.confidence >= 0.5) t.facts_in += 1;
      }
    }
    for (const SiteRun& run : crawl.sites) {
      t.parse_us += run.parse_us;
      t.parse_calls += static_cast<double>(run.parse_calls);
      t.pipeline_us += run.pipeline_s * 1e6;
      t.site_wall_us += run.wall_s * 1e6;
      t.pages += static_cast<double>(run.parse_calls);
      const PipelineResult& r = run.result;
      for (EntityId topic : r.topic_of_page) {
        t.annotation_pages += 1;
        if (topic != kInvalidEntity) t.topic_pages += 1;
      }
      t.annotated_pages += static_cast<double>(r.annotated_pages.size());
      for (const Annotation& annotation : r.annotations) {
        if (annotation.predicate != kNamePredicate) t.annotations += 1;
      }
      t.skipped_clusters +=
          static_cast<double>(r.diagnostics.skipped_clusters.size());
      for (const ClusterModel& model : r.models) {
        const double features = model.model.model.num_features();
        const double classes = model.model.model.num_classes();
        t.models += 1;
        t.features += features;
        t.classes += classes;
        t.params += features * classes;
      }
      if (run.trace == nullptr) continue;
      const obs::TraceTree& tree = *run.trace;
      auto total = [&](std::string_view stage) {
        return static_cast<double>(
            tree.TotalMicros({"pipeline", "clusters", "cluster", stage}));
      };
      t.clustering_us += static_cast<double>(tree.TotalMicros({"pipeline", "clustering"}));
      t.clusters += static_cast<double>(tree.SpanCount({"pipeline", "clusters", "cluster"}));
      t.topic_us += total("topic");
      t.annotate_us += total("annotate");
      t.train_us += total("train");
      t.extract_us += total("extract");
      // Clusters of one site may run concurrently, so the site's training
      // critical path is its slowest single train span, not the sum.
      t.train_critical_us += static_cast<double>(MaxSpanMicros(tree, "train"));
    }
  }
  return t;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Checks shared by both batch workloads and the operation counts; returns
/// the precision of the first pass's fused facts.
double CheckBatchOutputs(const BatchSetup& setup,
                         const std::vector<PassSummary>& passes,
                         const Pass& first, RunResult* out) {
  for (const PassSummary& pass : passes) {
    out->Check(pass.digest == passes.front().digest,
               "fused facts differ between passes of one run");
    out->attempted += setup.sites;
    out->failed += pass.failed_sites;
  }
  int64_t correct = 0;
  for (size_t c = 0; c < first.crawls.size(); ++c) {
    correct += CorrectFacts(setup.crawls[c]->corpus, first.crawls[c].fused);
  }
  const int64_t facts = FusedFacts(first);
  out->Check(facts > 0, "no fused facts");
  const double precision = Ratio(static_cast<double>(correct),
                                 static_cast<double>(facts));
  out->Check(precision >= kPrecisionFloor,
             "precision " + std::to_string(precision) +
                 " below the Table 8 floor " + std::to_string(kPrecisionFloor));
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(passes.front().digest));
  out->Stamp("fused_digest", digest);
  out->Stamp("corpus_crawls", std::to_string(setup.crawls.size()));
  out->Stamp("corpus_pages", std::to_string(setup.pages));
  out->Stamp("corpus_sites", std::to_string(setup.sites));
  out->Stamp("corpus_scale", std::to_string(kBatchScale));
  return precision;
}

void AddEndToEnd(RunResult* out, double setup_wall_s, double setup_ref_s,
                 int64_t pages, const std::vector<PassSummary>& passes,
                 const Pass& first, double precision, double peak_rss_mb) {
  std::vector<double> rates, wall_rates;
  std::vector<double> latency_ms;
  for (const PassSummary& pass : passes) {
    rates.push_back(static_cast<double>(pages) / pass.ref_s);
    wall_rates.push_back(static_cast<double>(pages) / pass.wall_s);
    latency_ms.insert(latency_ms.end(), pass.page_done_ms.begin(),
                      pass.page_done_ms.end());
  }
  out->Add("setup_s", setup_ref_s, "s");
  out->Add("pages_per_ref_s", Median(rates), "1/s");
  out->Add("facts", static_cast<double>(FusedFacts(first)), "count");
  out->Add("precision", precision, "ratio");
  out->Add("peak_rss_mb", peak_rss_mb, "MB");
  // The same in wall seconds, and page time-to-extractions, are recorded,
  // not gated (see README.md).
  out->Stamp("setup_wall_s", JsonNumber(setup_wall_s));
  out->Stamp("pages_per_s", JsonNumber(Median(wall_rates)));
  out->Stamp("p50_ms", std::to_string(Median(latency_ms)));
  if (const std::optional<TailPoint> tail = HighestSupportedPercentile(latency_ms)) {
    out->Stamp("tail_percentile", std::to_string(tail->percentile));
    out->Stamp("tail_ms", std::to_string(tail->value));
  }
  out->Stamp("latency_samples", std::to_string(latency_ms.size()));
  out->Stamp("passes", std::to_string(passes.size()));
  std::string walls, refs;
  for (const PassSummary& pass : passes) {
    if (!walls.empty()) walls += ',', refs += ',';
    walls += JsonNumber(pass.wall_s);
    refs += JsonNumber(pass.ref_s);
  }
  out->Stamp("pass_wall_s", walls);
  out->Stamp("pass_ref_s", refs);
}

/// Per-layer metrics of the traced run, from its last traced pass.
/// Counters and histograms accumulate over all `traced_passes`; layer
/// figures are per pass. The pass times are medians over the traced and
/// the untraced passes, in reference seconds.
void AddLayers(RunResult* out, const Pass& traced, double traced_ref_s,
               double untraced_ref_s, double traced_passes,
               const obs::MetricsRegistry& metrics, bool sharded,
               const obs::Histogram* shard_us) {
  const LayerTotals t = SumLayers(traced);
  const double mention_lookups =
      static_cast<double>(metrics.CounterValue("ceres_kb_mention_lookups_total")) /
      traced_passes;
  const double mention_hits =
      static_cast<double>(metrics.CounterValue("ceres_kb_mention_hits_total")) /
      traced_passes;

  LayerMetrics layers;
  if (!sharded) {
    // On batch_sharded these layers run inside the forked workers, which
    // return neither trace nor obs counters; they stay unavailable there.
    layers.Set("dom.parse_us", Ratio(t.parse_us, t.parse_calls));
    layers.Set("dom.parse_calls", t.parse_calls);
    layers.Set("cluster.us", t.clustering_us);
    layers.Set("cluster.clusters", t.clusters);
    layers.Set("core.topic.us", t.topic_us);
    layers.Set("core.topic.hit_ratio", Ratio(t.topic_pages, t.annotation_pages));
    layers.Set("core.annotate.us", t.annotate_us);
    layers.Set("core.annotate.annotations", t.annotations);
    layers.Set("core.annotate.page_ratio", Ratio(t.annotated_pages, t.pages));
    layers.Set("core.train.us", t.train_us);
    layers.Set("core.train.critical_path_us", t.train_critical_us);
    layers.Set("core.train.share", Ratio(t.train_us, t.pipeline_us));
    layers.Set("core.extract.us", t.extract_us);
    layers.Set("core.extract.page_us", Ratio(t.extract_us, t.pages));
    layers.Set("core.skipped_clusters", t.skipped_clusters);
    layers.Set("ml.features", Ratio(t.features, t.models));
    layers.Set("ml.classes", Ratio(t.classes, t.models));
    layers.Set("ml.params", Ratio(t.params, t.models));
    layers.Set("kb.mention_lookups", mention_lookups);
    layers.Set("kb.mention_hit_ratio", Ratio(mention_hits, mention_lookups));
    layers.Set("kb.fuzzy_lookups",
               static_cast<double>(metrics.CounterValue("ceres_fuzzy_lookups_total")) /
                   traced_passes);
  } else {
    // Bucket-interpolated median; the max is exact.
    layers.Set("dist.shard_us_p50", shard_us->Percentile(0.5));
    layers.Set("dist.shard_us_max", static_cast<double>(shard_us->Max()));
    layers.Set("dist.retries", t.retries);
    layers.Set("dist.checkpoint_bytes", t.checkpoint_bytes);
  }
  layers.Set("fusion.us", t.fusion_us);
  layers.Set("fusion.facts_in", t.facts_in);
  layers.Set("fusion.facts_out", t.facts_out);
  layers.Set("trace.overhead_ratio", Ratio(traced_ref_s, untraced_ref_s));

  // Reconciliation: each layer's cost x calls against the pass. In-process,
  // layer time is compared with the summed per-site time plus fusion;
  // sharded, with the workers' busy time (kDistWorkers x wall) plus fusion.
  const double wall_us = traced.wall_s * 1e6;
  ReconciliationReport report(
      sharded ? "dist workers x pass wall + fusion" : "site time + fusion",
      sharded ? kDistWorkers * wall_us + t.fusion_us
              : t.site_wall_us + t.fusion_us);
  if (sharded) {
    const double shards = static_cast<double>(shard_us->Count());
    report.Add("dist.shard", Ratio(static_cast<double>(shard_us->Sum()), shards),
               shards / traced_passes);
    report.Unavailable("dom, cluster, core, kb layers",
                       "they run inside forked workers, whose trace and obs "
                       "counters the coordinator does not return");
  } else {
    report.Add("dom.parse", Ratio(t.parse_us, t.parse_calls), t.parse_calls);
    report.Add("cluster", Ratio(t.clustering_us, t.sites), t.sites);
    report.Add("core.topic", Ratio(t.topic_us, t.clusters), t.clusters);
    report.Add("core.annotate", Ratio(t.annotate_us, t.clusters), t.clusters);
    report.Add("core.train", Ratio(t.train_us, t.clusters), t.clusters);
    report.Add("core.extract", Ratio(t.extract_us, t.clusters), t.clusters);
  }
  report.Add("fusion", Ratio(t.fusion_us, static_cast<double>(traced.crawls.size())),
             static_cast<double>(traced.crawls.size()));
  report.Unavailable("ml solver iterations and convergence",
                     "TrainExtractor discards the LbfgsResult");
  out->report = report.Render(wall_us);
  layers.Set("trace.unexplained_share", report.UnexplainedShare());
  layers.AppendTo(out);
}

RunResult RunBatch(const RunOptions& options, bool sharded) {
  RunResult out;
  double setup_wall_s = 0, setup_ref_s = 0;
  std::unique_ptr<BatchSetup> setup =
      TimedSetUp(options.seed, sharded, &setup_wall_s, &setup_ref_s);
  const BatchSetup& s = *setup;
  const std::string ckpt = options.scratch_dir + "/checkpoints";
  out.Stamp("pipeline_parallel_threads",
            sharded ? "1" : std::to_string(kPipelineThreads));
  out.Stamp("dist_workers", sharded ? std::to_string(kDistWorkers) : "0");

  // batch_sharded's fused output must equal the in-process batch_longtail
  // result over the same crawls, byte for byte. The reference pass runs
  // after the timed passes and after peak memory is read, so neither
  // peak_rss_mb nor the heap the workers fork from includes it.
  auto check_reference = [&](const std::vector<PassSummary>& passes) {
    if (!sharded) return;
    const Pass reference = RunPass(s, /*sharded=*/false, false, ckpt);
    out.Check(Summarize(reference, s).failed_sites == 0, "reference pass failed");
    out.Check(passes.front().digest == FusedDigest(reference),
              "batch_sharded fused output differs from batch_longtail's");
  };

  Pass first, last;
  if (!options.trace) {
    const std::vector<PassSummary> passes =
        TimedPasses(options.seconds, s, sharded, ckpt, &first);
    const double peak_rss_mb = PeakRssMb(/*include_children=*/sharded);
    const double precision = CheckBatchOutputs(s, passes, first, &out);
    check_reference(passes);
    if (sharded) {
      // DistConfig::num_shards = 0: as many shards as sites, which the
      // sites hash into, so some shards hold several sites.
      int64_t shards = 0;
      for (const CrawlPass& crawl : first.crawls) shards += crawl.dist.shards_completed;
      out.Stamp("dist_shards_completed", std::to_string(shards));
    }
    AddEndToEnd(&out, setup_wall_s, setup_ref_s, s.pages, passes, first,
                precision, peak_rss_mb);
    return out;
  }

  // Traced run: rounds of one untraced and one traced pass, the order
  // alternating from round to round (untraced first in even rounds), so
  // trace.overhead_ratio does not depend on which kind ran first. Obs
  // counters are on during traced passes only.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  metrics.Reset();
  std::vector<PassSummary> passes;
  std::vector<double> untraced_ref_s, traced_ref_s;
  const Clock::time_point start = Clock::now();
  for (size_t round = 0; round < 2 || SecondsSince(start) < options.seconds;
       ++round) {
    for (size_t i = 0; i < 2; ++i) {
      const bool trace = (round + i) % 2 == 1;
      obs::SetEnabled(trace);
      Pass pass = RunPass(s, sharded, trace, ckpt);
      obs::SetEnabled(false);
      passes.push_back(Summarize(pass, s));
      (trace ? traced_ref_s : untraced_ref_s).push_back(passes.back().ref_s);
      if (passes.size() == 1) {
        first = std::move(pass);
      } else if (trace) {
        last = std::move(pass);
      }
    }
  }
  (void)CheckBatchOutputs(s, passes, first, &out);
  check_reference(passes);
  if (sharded) {
    // Fusion runs inside the coordinator; time it from outside by fusing
    // the merged site extractions again.
    for (size_t c = 0; c < last.crawls.size(); ++c) {
      CrawlPass& crawl = last.crawls[c];
      const Clock::time_point fusion_start = Clock::now();
      (void)fusion::FuseExtractions(crawl.extractions,
                                    s.crawls[c]->corpus.seed_kb.ontology());
      crawl.fusion_s = SecondsSince(fusion_start);
    }
  }
  // The coordinator records per-shard latency into the obs registry.
  AddLayers(&out, last, Median(traced_ref_s), Median(untraced_ref_s),
            static_cast<double>(traced_ref_s.size()), metrics, sharded,
            metrics.GetHistogram("ceres_dist_shard_latency_us"));
  return out;
}

}  // namespace

RunResult RunBatchLongtail(const RunOptions& options) {
  return RunBatch(options, /*sharded=*/false);
}

RunResult RunBatchSharded(const RunOptions& options) {
  return RunBatch(options, /*sharded=*/true);
}

}  // namespace perfbench
