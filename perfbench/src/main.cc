/// modis_perfbench — the repository benchmark (perfbench/README.md).
///
///   modis_perfbench --workload W --seed N --seconds S --trace 0|1
///                   [--slo-ms MS]
///
/// Runs one workload and prints every metric with its unit, then, as the
/// last stdout line, one JSON object {"correct", "attempted", "failed",
/// "metrics"}: the end-to-end metrics with --trace 0; with --trace 1 an
/// untraced pass followed by a traced one, reporting the per-layer
/// metrics plus the tracing overhead, and writing a Perfetto-loadable
/// trace with a summary under .bench_build/traces/. Exits 1 when an
/// answer check fails, 2 on a usage error.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

using perfbench::Metric;
using perfbench::PassResult;
using perfbench::RunOptions;

int Usage(const char* why) {
  std::fprintf(stderr,
               "modis_perfbench: %s\nusage: modis_perfbench --workload "
               "discover_cold|serve_warm|serve_mixed|serve_pool --seed N "
               "--seconds S --trace 0|1 [--slo-ms MS]\n",
               why);
  return 2;
}

PassResult RunPass(const RunOptions& options, perfbench::SpanStore* store) {
  if (options.workload == "discover_cold") {
    return perfbench::RunDiscoverCold(options, store);
  }
  return perfbench::RunServe(options, store);
}

double Find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 && std::strcmp(argv[1], "--role") == 0) {
    if (std::strcmp(argv[2], "prep") == 0) {
      return perfbench::PrepMain(argc, argv);
    }
    if (std::strcmp(argv[2], "worker") == 0) {
      return perfbench::WorkerMain(argc, argv);
    }
    return Usage("unknown role");
  }
  RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--slo-ms") {
      options.slo_ms = std::strtod(value.c_str(), nullptr);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload != "discover_cold" && options.workload != "serve_warm" &&
      options.workload != "serve_mixed" && options.workload != "serve_pool") {
    return Usage("unknown workload");
  }
  if (!have_seed || options.seconds < 1 || options.slo_ms <= 0) {
    return Usage("bad --seed, --seconds or --slo-ms");
  }

  namespace fs = std::filesystem;
  options.self_exe = fs::read_symlink("/proc/self/exe").string();
  const fs::path root = fs::current_path() / ".bench_build";
  options.work_dir = (root / "run" /
                      (options.workload + "-" + std::to_string(getpid())))
                         .string();
  options.trace_dir = (root / "traces").string();
  fs::create_directories(options.work_dir);

  PassResult result = RunPass(options, nullptr);
  std::vector<Metric> metrics = result.end_to_end;
  if (options.trace && result.check_failures.empty()) {
    fs::remove_all(options.work_dir);
    fs::create_directories(options.work_dir);
    perfbench::SpanStore store;
    PassResult traced = RunPass(options, &store);
    for (const std::string& f : traced.check_failures) result.Fail(f);
    if (traced.answers_digest != result.answers_digest) {
      result.Fail("traced answers differ from untraced answers");
    }
    result.attempted += traced.attempted;
    result.failed += traced.failed;
    metrics = traced.per_layer;
    const double untraced_p50 = Find(result.end_to_end, "query_p50_ms");
    const double traced_p50 = Find(traced.end_to_end, "query_p50_ms");
    metrics.push_back({"trace.overhead_ms", traced_p50 - untraced_p50, "ms"});
    metrics.push_back({"trace.overhead_pct",
                       untraced_p50 > 0
                           ? 100.0 * (traced_p50 - untraced_p50) / untraced_p50
                           : 0.0,
                       "%"});
    fs::create_directories(options.trace_dir);
    const std::string path = options.trace_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    if (!perfbench::WriteChromeTrace(path, store.Snapshot(), metrics)) {
      result.Fail("could not write " + path);
    }
    std::printf("trace: %s (+ .summary.txt)\n", path.c_str());
    for (const Metric& m : traced.end_to_end) {
      std::printf("traced %-26s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  fs::remove_all(options.work_dir);

  for (const Metric& m : result.end_to_end) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : result.ungated) {
    std::printf("%-32s %16.6f %s (not gated)\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (options.trace) {
    for (const Metric& m : metrics) {
      std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("answers_digest %s\n", result.answers_digest.c_str());
  for (const std::string& f : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = result.check_failures.empty();
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
