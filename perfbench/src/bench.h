#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

/// Shared pieces of the repository benchmark (perfbench/README.md): run
/// options, metric records, order statistics, skyline digests and
/// hypervolume, peak-memory probes, and the in-memory span store the
/// traced run records into.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/discovery_service.h"

namespace perfbench {

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 12;
  bool trace = false;
  /// Latency objective of the max_qps_at_slo search (p99, ms).
  double slo_ms = 10.0;
  /// Absolute path of this binary (pool workers and prep re-exec it).
  std::string self_exe;
  /// Scratch directory of this run (cache files, ring segment).
  std::string work_dir;
  /// Where the traced run writes its Perfetto file and summary.
  std::string trace_dir;
};

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one pass of a workload.
struct PassResult {
  std::vector<Metric> end_to_end;
  /// End-to-end measurements printed but not gated: too unsteady on a
  /// small virtual machine to carry a bound.
  std::vector<Metric> ungated;
  std::vector<Metric> per_layer;  // Filled by traced passes only.
  size_t attempted = 0;
  size_t failed = 0;
  /// Human-readable descriptions of failed answer checks.
  std::vector<std::string> check_failures;
  /// Digest over every distinct answer of the pass, in request-key
  /// order: equal across seeds, hosting modes and traced/untraced
  /// passes when the answers are deterministic.
  std::string answers_digest;

  void Fail(std::string what) { check_failures.push_back(std::move(what)); }
  void Add(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Note(const std::string& name, double value, const std::string& unit) {
    ungated.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// Linear-interpolated order statistic (p in [0, 1]); 0 for no samples.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

/// Digest of a skyline: member signatures plus normalized measures, bit
/// for bit, in response order.
uint64_t SkylineDigest(const modis::DiscoveryResponse& response);

/// Hypervolume of the skyline's normalized (minimized) measures against
/// the reference point (1, ..., 1); deterministic for a given skyline.
double SkylineHypervolume(const modis::DiscoveryResponse& response);

/// Stable text form of a request's answer-determining fields (task,
/// variant, oracle, measures, search knobs). The cache namespace and the
/// trace flag are left out: they never change the answer.
std::string RequestKey(const modis::DiscoveryRequest& request);

/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);

uint64_t Fnv1a(uint64_t hash, const void* data, size_t size);
std::string Hex64(uint64_t value);

/// One recorded span. `parent` indexes the owning store; -1 for roots.
struct Span {
  std::string name;
  int parent = -1;
  double start_ms = 0.0;
  double dur_ms = 0.0;
};

/// In-memory span store of a traced pass. Thread-safe; spans are written
/// out once, at the end (WriteChromeTrace).
class SpanStore {
 public:
  SpanStore();
  double NowMs() const;
  /// Appends a finished span and returns its index.
  int Add(const std::string& name, int parent, double start_ms,
          double dur_ms);
  /// Opens a span ending at End(); returns its index.
  int Begin(const std::string& name, int parent);
  void End(int id);
  /// Grafts a host span tree (ids and parents as echoed by the host)
  /// under `parent`, shifted so its root starts at `root_start_ms`.
  void Graft(const std::vector<modis::TraceSpan>& tree, int parent,
             double root_start_ms);
  /// Re-parents every root span named `child` recorded at or after
  /// index `from` under the innermost span named `parent` (also at or
  /// after `from`) whose interval contains it. Links decorator spans
  /// recorded on pool threads to the host span that ran them.
  void Adopt(const std::string& child, const std::string& parent, int from);
  std::vector<Span> Snapshot() const;
  int size() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span over a bench-side call into one module. While it is open,
/// it is the default parent of spans opened on the same thread.
class ScopedSpan {
 public:
  ScopedSpan(SpanStore* store, const std::string& name, int parent = -2);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanStore* store_;
  int id_;
  int saved_parent_;
};

/// Per-name totals of a span set: count, summed duration, and summed
/// self time (duration minus the union of its children's intervals).
struct SpanTotals {
  size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

/// Writes the spans as a Chrome trace_event JSON (loadable in
/// ui.perfetto.dev) and a plain-text per-name summary beside it.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::vector<Metric>& per_layer);

/// The workloads. Each runs one pass; `store` is non-null for the traced
/// pass.
PassResult RunDiscoverCold(const RunOptions& options, SpanStore* store);
PassResult RunServe(const RunOptions& options, SpanStore* store);

/// Child-process roles of the serve workloads.
int PrepMain(int argc, char** argv);
int WorkerMain(int argc, char** argv);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
