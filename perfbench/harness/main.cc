// perfbench — the repository benchmark. One invocation runs one workload:
//
//   perfbench --workload <batch_longtail|batch_sharded>
//             --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir> [--record <file>]
//
// It builds the workload's inputs from the seed, sets up, measures for the
// given seconds, checks the program's outputs, and prints one JSON object as
// the last line of stdout:
//   {"correct":true,"attempted":N,"failed":M,"metrics":{name:{value,unit}}}
// End-to-end metrics without --trace, per-layer metrics with --trace 1. A
// failed output check prints what failed on stderr and exits 1 with no
// result line. The run stamp (host, compiler, build, thread counts) goes to
// stderr and, with --record, into a JSON record file for bench_diff.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "harness/stats.h"
#include "harness/workloads.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
               "--scratch DIR [--record FILE]\n");
  return 2;
}

std::string StampJson(const std::string& workload, const RunOptions& options,
                      const RunResult& result) {
  std::string out = "{\"workload\":" + perfbench::JsonString(workload);
  out += ",\"seed\":" + std::to_string(options.seed);
  out += ",\"seconds\":" + perfbench::JsonNumber(options.seconds);
  out += ",\"trace\":" + std::string(options.trace ? "1" : "0");
  out += ",\"host_cores\":" +
         std::to_string(std::thread::hardware_concurrency());
  out += ",\"compiler\":" + perfbench::JsonString(PERFBENCH_COMPILER);
  out += ",\"build_type\":" + perfbench::JsonString(PERFBENCH_BUILD_TYPE);
  out += ",\"git_sha\":" + perfbench::JsonString(PERFBENCH_GIT_SHA);
  for (const auto& [key, value] : result.stamp) {
    out += ',';
    out += perfbench::JsonString(key);
    out += ':';
    out += perfbench::JsonString(value);
  }
  return out + "}";
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(result.attempted) +
                    ", \"failed\": " + std::to_string(result.failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& metric = result.metrics[i];
    if (i > 0) out += ", ";
    out += perfbench::JsonString(metric.name) + ": {\"value\": " +
           perfbench::JsonNumber(metric.value) +
           ", \"unit\": " + perfbench::JsonString(metric.unit) + "}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string record;
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--scratch") {
      options.scratch_dir = value;
    } else if (flag == "--record") {
      record = value;
    } else {
      return Usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace || options.scratch_dir.empty()) {
    return Usage();
  }

  RunResult (*run)(const RunOptions&) = nullptr;
  if (workload == "batch_longtail") run = perfbench::RunBatchLongtail;
  if (workload == "batch_sharded") run = perfbench::RunBatchSharded;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return Usage();
  }

  std::filesystem::remove_all(options.scratch_dir);
  std::filesystem::create_directories(options.scratch_dir);
  RunResult result;
  try {
    result = run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    std::filesystem::remove_all(options.scratch_dir);
    return 1;
  }
  std::filesystem::remove_all(options.scratch_dir);

  const std::string stamp = StampJson(workload, options, result);
  std::fprintf(stderr, "stamp %s\n", stamp.c_str());
  if (!result.report.empty()) std::fprintf(stderr, "%s", result.report.c_str());
  if (!result.check_failures.empty()) {
    for (const std::string& failure : result.check_failures) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
    }
    return 1;
  }
  const std::string line = ResultJson(result);
  if (!record.empty()) {
    std::filesystem::create_directories(
        std::filesystem::path(record).parent_path());
    std::ofstream file(record);
    file << "{\"stamp\": " << stamp << ", \"result\": " << line
         << ", \"report\": " << perfbench::JsonString(result.report) << "}\n";
  }
  std::printf("%s\n", line.c_str());
  return 0;
}
