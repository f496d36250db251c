#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "moo/hypervolume.h"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * double(values.size() - 1);
  const size_t lo = size_t(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - double(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / double(values.size());
}

uint64_t Fnv1a(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)value);
  return buf;
}

uint64_t SkylineDigest(const modis::DiscoveryResponse& response) {
  uint64_t hash = 1469598103934665603ull;
  for (const modis::DiscoverySkylineRow& row : response.skyline) {
    hash = Fnv1a(hash, row.signature.data(), row.signature.size());
    for (double v : row.normalized) hash = Fnv1a(hash, &v, sizeof(v));
    const char sep = '|';
    hash = Fnv1a(hash, &sep, 1);
  }
  return hash;
}

double SkylineHypervolume(const modis::DiscoveryResponse& response) {
  if (response.skyline.empty()) return 0.0;
  std::vector<modis::PerfVector> points;
  for (const modis::DiscoverySkylineRow& row : response.skyline) {
    points.push_back(row.normalized);
  }
  const modis::PerfVector reference(points.front().size(), 1.0);
  return modis::Hypervolume(points, reference);
}

std::string RequestKey(const modis::DiscoveryRequest& r) {
  std::ostringstream key;
  key << r.task << '/' << r.variant << '/' << r.oracle << "/eps=" << r.epsilon
      << "/N=" << r.budget << "/maxl=" << r.maxl << "/k=" << r.k
      << "/seed=" << r.seed << '/';
  for (const std::string& m : r.measures) key << m << ',';
  return key.str();
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  return 0.0;
}

// ------------------------------------------------------------- spans

namespace {

/// Innermost open ScopedSpan of this thread (-1 when none).
thread_local int current_span = -1;

}  // namespace

ScopedSpan::ScopedSpan(SpanStore* store, const std::string& name, int parent)
    : store_(store), id_(-1), saved_parent_(current_span) {
  if (store_ == nullptr) return;
  id_ = store_->Begin(name, parent == -2 ? current_span : parent);
  current_span = id_;
}

ScopedSpan::~ScopedSpan() {
  if (store_ == nullptr) return;
  store_->End(id_);
  current_span = saved_parent_;
}

SpanStore::SpanStore() : epoch_(std::chrono::steady_clock::now()) {}

double SpanStore::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanStore::Add(const std::string& name, int parent, double start_ms,
                   double dur_ms) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_ms = start_ms;
  span.dur_ms = dur_ms;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return int(spans_.size()) - 1;
}

int SpanStore::Begin(const std::string& name, int parent) {
  return Add(name, parent, NowMs(), -1.0);
}

void SpanStore::End(int id) {
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || size_t(id) >= spans_.size()) return;
  Span& span = spans_[size_t(id)];
  if (span.dur_ms < 0.0) span.dur_ms = now - span.start_ms;
}

void SpanStore::Graft(const std::vector<modis::TraceSpan>& tree, int parent,
                      double root_start_ms) {
  if (tree.empty()) return;
  double base = tree.front().start_ms;
  for (const modis::TraceSpan& s : tree) base = std::min(base, s.start_ms);
  std::lock_guard<std::mutex> lock(mu_);
  // Echoed parents always precede their children, so one pass remaps.
  std::map<modis::SpanId, int> index_of;
  for (const modis::TraceSpan& s : tree) {
    Span span;
    span.name = s.name;
    const auto it = index_of.find(s.parent);
    span.parent = it == index_of.end() ? parent : it->second;
    index_of[s.id] = int(spans_.size());
    span.start_ms = root_start_ms + (s.start_ms - base);
    span.dur_ms = std::max(0.0, s.duration_ms);
    spans_.push_back(std::move(span));
  }
}

void SpanStore::Adopt(const std::string& child, const std::string& parent,
                      int from) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<size_t> parents;
  for (size_t i = size_t(std::max(0, from)); i < spans_.size(); ++i) {
    if (spans_[i].name == parent) parents.push_back(i);
  }
  for (size_t i = size_t(std::max(0, from)); i < spans_.size(); ++i) {
    Span& s = spans_[i];
    if (s.name != child || s.parent >= 0) continue;
    int best = -1;
    for (size_t p : parents) {
      const Span& c = spans_[p];
      if (c.start_ms <= s.start_ms &&
          c.start_ms + c.dur_ms >= s.start_ms + s.dur_ms &&
          (best < 0 || c.start_ms > spans_[size_t(best)].start_ms)) {
        best = int(p);
      }
    }
    s.parent = best;
  }
}

int SpanStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return int(spans_.size());
}

std::vector<Span> SpanStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && size_t(p) < spans.size()) children[size_t(p)].push_back(i);
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double begin = s.start_ms;
    const double end = s.start_ms + std::max(0.0, s.dur_ms);
    std::vector<std::pair<double, double>> covered;
    for (size_t c : children[i]) {
      const double cb = std::max(begin, spans[c].start_ms);
      const double ce =
          std::min(end, spans[c].start_ms + std::max(0.0, spans[c].dur_ms));
      if (ce > cb) covered.emplace_back(cb, ce);
    }
    std::sort(covered.begin(), covered.end());
    double union_ms = 0.0;
    double cur_b = 0.0, cur_e = -1.0;
    for (const auto& [b, e] : covered) {
      if (b > cur_e) {
        if (cur_e > cur_b) union_ms += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) union_ms += cur_e - cur_b;
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_ms += std::max(0.0, s.dur_ms);
    t.self_ms += std::max(0.0, s.dur_ms - union_ms);
  }
  return totals;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::vector<Metric>& per_layer) {
  // Trace viewers need the spans of one row to nest, so each span goes
  // to the first lane whose innermost open span contains it.
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (spans[a].start_ms != spans[b].start_ms) {
      return spans[a].start_ms < spans[b].start_ms;
    }
    return spans[a].dur_ms > spans[b].dur_ms;
  });
  std::vector<std::vector<double>> lanes;  // Stack of open span ends.
  std::vector<size_t> lane_of(spans.size(), 0);
  for (size_t i : order) {
    const double begin = spans[i].start_ms;
    const double end = begin + std::max(0.0, spans[i].dur_ms);
    size_t lane = 0;
    for (; lane < lanes.size(); ++lane) {
      std::vector<double>& stack = lanes[lane];
      while (!stack.empty() && stack.back() <= begin) stack.pop_back();
      if (stack.empty() || stack.back() >= end) break;
    }
    if (lane == lanes.size()) lanes.emplace_back();
    lanes[lane].push_back(end);
    lane_of[i] = lane;
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"ts\":%.3f,"
                  "\"dur\":%.3f}",
                  lane_of[i], s.start_ms * 1000.0,
                  std::max(0.0, s.dur_ms) * 1000.0);
    out << "{\"name\":" << JsonString(s.name) << buf
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  out.close();

  std::ofstream summary(path + ".summary.txt");
  if (!summary) return false;
  const auto totals = TotalsByName(spans);
  std::vector<std::pair<std::string, SpanTotals>> rows(totals.begin(),
                                                       totals.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  summary << "span                      count      total_ms       self_ms\n";
  for (const auto& [name, t] : rows) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-22s %8zu %13.3f %13.3f\n",
                  name.c_str(), t.count, t.total_ms, t.self_ms);
    summary << buf;
  }
  summary << "\nper-layer metrics\n";
  for (const Metric& m : per_layer) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-34s %16.6f %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    summary << buf;
  }
  return bool(summary);
}

}  // namespace perfbench
