// Entry point of the SPATE benchmark binary. Runs one workload and prints
// detail lines, then, as its last line, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// with every end-to-end metric (untraced run) or every per-layer metric
// (`--trace 1`). Usually started through perfbench/run.py, which builds it.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/failpoint.h"
#include "common/lockdep.h"

namespace perfbench {
std::vector<std::string> ServeWindowViolations(uint64_t seed);
}  // namespace perfbench

namespace {

using perfbench::Options;
using perfbench::RunResult;

/// Reasons this build must not be measured: assertions on, or the lockdep
/// or failpoint instrumentation compiled in.
std::vector<std::string> BuildProblems() {
  std::vector<std::string> problems;
#ifndef NDEBUG
  problems.push_back("NDEBUG is not defined (assertions are on)");
#endif
#if SPATE_LOCKDEP_ENABLED
  problems.push_back("SPATE_LOCKDEP instrumentation is compiled in");
#endif
  if (spate::failpoint::Enabled()) {
    problems.push_back("SPATE_FAILPOINTS sites are compiled in");
  }
  return problems;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintMetrics(const char* title,
                  const std::map<std::string, perfbench::MetricValue>& map) {
  for (const auto& [name, metric] : map) {
    printf("# %s %-36s %18.6f %s\n", title, name.c_str(), metric.value,
           metric.unit.c_str());
  }
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

int Usage() {
  fprintf(stderr,
          "usage: spate_perfbench --workload ingest|explore|serve --seed N "
          "--seconds S --trace 0|1 [--out-dir DIR] [--commit ID]\n"
          "       spate_perfbench --list-layer-metrics\n"
          "       spate_perfbench --check-serve-windows SEEDS\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--list-layer-metrics") {
      for (const auto& [name, unit] : perfbench::LayerMetricNames()) {
        printf("%s %s\n", name.c_str(), unit.c_str());
      }
      return 0;
    }
    if (arg == "--perturb-reference") {
      options.perturb_reference = true;
      continue;
    }
    if (value == nullptr) return Usage();
    ++i;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = atof(value);
    } else if (arg == "--trace") {
      options.trace = atoi(value) != 0;
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else if (arg == "--check-serve-windows") {
      // The serve generator's safety property, checked over many seeds.
      const uint64_t seeds = strtoull(value, nullptr, 10);
      uint64_t bad = 0;
      for (uint64_t seed = 1; seed <= seeds; ++seed) {
        for (const std::string& v : perfbench::ServeWindowViolations(seed)) {
          fprintf(stderr, "seed %" PRIu64 ": %s\n", seed, v.c_str());
          ++bad;
        }
      }
      printf("serve windows checked over %" PRIu64 " seeds: %" PRIu64
             " violations\n",
             seeds, bad);
      return bad == 0 ? 0 : 1;
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0) return Usage();

  const std::vector<std::string> problems = BuildProblems();
  if (!problems.empty()) {
    for (const std::string& p : problems) {
      fprintf(stderr, "refusing to measure this build: %s\n", p.c_str());
    }
    return 3;
  }

  RunResult result;
  if (options.workload == "ingest") {
    result = perfbench::RunIngest(options);
  } else if (options.workload == "explore") {
    result = perfbench::RunExplore(options);
  } else if (options.workload == "serve") {
    result = perfbench::RunServe(options);
  } else {
    return Usage();
  }
  if (options.trace) perfbench::FillMissingLayerMetrics(&result);

  for (const std::string& note : result.notes) printf("# %s\n", note.c_str());
  printf("# host {\"workload\": %s, \"seed\": %" PRIu64
         ", \"seconds\": %s, \"trace\": %d, \"nproc\": %u, \"compiler\": %s, "
         "\"build_type\": %s, \"commit\": %s}\n",
         JsonString(options.workload).c_str(), options.seed,
         perfbench::Exact(options.seconds).c_str(), options.trace ? 1 : 0,
         std::thread::hardware_concurrency(),
         JsonString(kCompiler).c_str(),
         JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(commit).c_str());
  std::string det = "{";
  for (const auto& [name, value] : result.deterministic) {
    if (det.size() > 1) det += ", ";
    det += JsonString(name) + ": " + JsonString(value);
  }
  printf("# deterministic %s}\n", det.c_str());
  if (options.trace) {
    PrintMetrics("layer", result.per_layer);
  } else {
    PrintMetrics("e2e", result.end_to_end);
  }

  const auto& metrics = options.trace ? result.per_layer : result.end_to_end;
  std::string json = "{\"correct\": ";
  json += result.failed == 0 && result.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(name) +
            ": {\"value\": " + perfbench::Exact(metric.value) +
            ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  json += "}}";
  printf("%s\n", json.c_str());
  return 0;
}
