/// serve_warm, serve_mixed, serve_pool: a discovery host restarted over a
/// pre-populated record-cache file, driven over TCP on localhost by one
/// load-generator process (at most 4 connections). serve_warm replays
/// recorded answers only; serve_mixed adds surrogate repeats and novel
/// queries that write to the bounded cache; serve_pool sends serve_mixed's
/// traffic through a WorkerPool of 2 worker processes sharing the file.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <map>
#include <random>
#include <set>
#include <thread>

#include "bench.h"
#include "common/timer.h"
#include "service/json.h"
#include "service/transport.h"
#include "service/wire.h"
#include "service/worker.h"
#include "storage/persistent_record_cache.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using modis::DiscoveryRequest;
using modis::DiscoveryResponse;

/// Row scale of every served task (T1..T4).
constexpr double kRowScale = 0.1;
constexpr size_t kBudget = 60;
constexpr int kMaxl = 4;
/// Synthetic history written ahead of the working set (other
/// fingerprints): sized so opening the file is a visible share of
/// setup_s, and so eviction always has cold records to take first.
constexpr size_t kHistoryRecords = 10000;
constexpr size_t kHistoryFingerprints = 100;
/// Client connections and threads of the load generator (= cores).
constexpr size_t kConnections = 4;
/// Pool geometry: 2 workers x 2 valuation threads = the 4 cores.
constexpr uint32_t kWorkers = 2;
constexpr size_t kWorkerThreads = 2;

/// A run is kRounds rounds. Each restarts the host over a fresh copy of
/// the start file (one setup_s sample), then measures a slice of every
/// phase; each metric is the median over the rounds. A fresh host gets
/// fresh threads, and on a small virtual machine thread placement moves
/// latency and throughput by tens of percent from one host to the next,
/// so one long measurement of one host is less steady than several short
/// ones.
constexpr int kRounds = 5;
/// Open-loop rates (queries/s); each round's main slice runs
/// --seconds / kWarmSlice (serve_warm) or whole blocks of about
/// --seconds / kMixedSlice (serve_mixed, serve_pool) seconds, so every
/// phase is a fixed query count for a given --seconds.
constexpr double kWarmRate = 200.0;
constexpr double kWarmSlice = 6.0;
constexpr double kMixedRate = 50.0;
constexpr double kMixedSlice = 4.0;
/// Mixed traffic, per block of kBlock queries: kNovelPerBlock novel
/// queries, kGbmPerBlock surrogate repeats, the rest exact repeats. The
/// classes are sized so no reported quantile sits on the boundary between
/// two classes' latencies.
constexpr size_t kBlock = 200;
constexpr size_t kNovelPerBlock = 3;
constexpr size_t kGbmPerBlock = 50;
/// Closed-loop saturation slice (throughput_qps): queries per client.
constexpr size_t kSaturationPerClient = 300;
/// max_qps_at_slo: kProbeRungs consecutive rates of the fixed grid
/// kGridBase * kGrid^k from the highest grid rate at or below kStartShare
/// of the first round's saturation throughput; every round probes each
/// for kProbeSeconds (at least kProbeQueries queries).
constexpr double kGridBase = 100.0;
constexpr double kGrid = 1.3;
constexpr int kProbeRungs = 6;
constexpr double kStartShare = 0.35;
constexpr double kProbeSeconds = 0.2;
constexpr size_t kProbeQueries = 200;

enum Klass { kExact = 0, kGbm = 1, kNovel = 2 };

struct TaskSpec {
  const char* name;
  std::vector<std::string> measures;  // The task's set minus train_time.
};

const std::vector<TaskSpec>& Tasks() {
  static const std::vector<TaskSpec> tasks = {
      {"T1", {"acc", "fisher", "mi"}},
      {"T2", {"f1", "acc", "fisher", "mi"}},
      {"T3", {"mse", "mae"}},
      {"T4", {"acc", "prec", "rec", "f1", "auc"}},
  };
  return tasks;
}

/// The repeat mix: T1..T4 x 4 variants x 2 epsilons, under `oracle`.
std::vector<DiscoveryRequest> RepeatSet(const std::string& oracle) {
  std::vector<DiscoveryRequest> set;
  for (const TaskSpec& task : Tasks()) {
    for (const char* variant : {"apx", "nobi", "bi", "div"}) {
      for (double epsilon : {0.1, 0.3}) {
        DiscoveryRequest r;
        r.task = task.name;
        r.variant = variant;
        r.oracle = oracle;
        r.epsilon = epsilon;
        r.budget = kBudget;
        r.maxl = kMaxl;
        r.measures = task.measures;
        set.push_back(std::move(r));
      }
    }
  }
  return set;
}

/// Novel queries re-ask exact repeats of T2 (random forests) under a
/// fresh cache namespace, so they train every state yet must return the
/// recorded answer. One task keeps their latencies one population; a
/// cold T1 or T4 query would hold its connection for 0.3-2 s and stall
/// most of the repeats queued behind it.
std::vector<DiscoveryRequest> NovelBase() {
  std::vector<DiscoveryRequest> set;
  for (const DiscoveryRequest& r : RepeatSet("exact")) {
    if (r.task == "T2") set.push_back(r);
  }
  return set;
}

std::string Arg(int argc, char** argv, const std::string& flag,
                const std::string& fallback = "") {
  for (int i = 1; i + 1 < argc; ++i) {
    if (flag == argv[i]) return argv[i + 1];
  }
  return fallback;
}

pid_t SpawnSelf(const std::string& exe, std::vector<std::string> args) {
  args.insert(args.begin(), exe);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Children log to stderr only: stdout carries the result line.
    ::dup2(2, 1);
    ::execv(exe.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

size_t CountRecords(const std::string& path) {
  std::vector<modis::StoredRecord> records;
  auto log = modis::RecordLog::Open(path, /*read_only=*/true, &records);
  return log.ok() ? records.size() : 0;
}

// ------------------------------------------------------------ reference

struct RefAnswer {
  uint64_t digest = 0;
  size_t valuated = 0;
};

struct Reference {
  std::map<std::string, RefAnswer> answers;  // By RequestKey.
  std::map<std::string, double> bytes_per_training;  // By task.
  uint64_t start_bytes = 0;
  /// Requests whose warm replay differed from their cold answer.
  std::vector<std::string> mismatches;
};

bool LoadReference(const std::string& path, Reference* ref) {
  std::ifstream in(path);
  std::string kind;
  while (in >> kind) {
    if (kind == "answer") {
      std::string key, digest;
      RefAnswer a;
      in >> key >> digest >> a.valuated;
      a.digest = std::stoull(digest, nullptr, 16);
      ref->answers[key] = a;
    } else if (kind == "bytes_per_training") {
      std::string task;
      double bytes = 0;
      in >> task >> bytes;
      ref->bytes_per_training[task] = bytes;
    } else if (kind == "cold_warm_mismatch") {
      std::string key;
      in >> key;
      ref->mismatches.push_back(key);
    } else if (kind == "start_bytes") {
      in >> ref->start_bytes;
    } else {
      return false;
    }
  }
  return !ref->answers.empty() && ref->start_bytes > 0;
}

// ------------------------------------------------------------ host

struct HostConfig {
  bool pool = false;
  std::string cache_path;
  uint64_t max_bytes = 0;
  std::string ring_path;
  std::string self_exe;
};

/// The host under test behind a LineServer on 127.0.0.1 (ephemeral
/// port): an in-process DiscoveryService, or a coordinator plus a
/// WorkerPool whose workers share the cache file.
class Host {
 public:
  static std::unique_ptr<Host> Start(const HostConfig& config,
                                     std::string* error) {
    std::unique_ptr<Host> host(new Host());
    modis::DiscoveryService::Options options;
    options.task_row_scale = kRowScale;
    options.default_cache_path = config.cache_path;
    options.cache_max_bytes = config.max_bytes;
    options.queue_capacity = 64;
    if (config.pool) {
      // The coordinator only routes discover lines into the ring; its
      // one-thread pool never runs a valuation.
      options.sessions = 1;
      options.valuation_threads = 1;
    } else {
      options.sessions = kConnections;
      options.valuation_threads = kConnections;
    }
    host->service_ = std::make_unique<modis::DiscoveryService>(options);
    if (config.pool) {
      modis::WorkerPool::Options pool_options;
      pool_options.workers = kWorkers;
      pool_options.ring_path = config.ring_path;
      pool_options.ring.slots = 16;
      const HostConfig c = config;
      pool_options.spawn = [c](uint32_t worker) {
        return SpawnSelf(c.self_exe,
                         {"--role", "worker", "--ring", c.ring_path, "--index",
                          std::to_string(worker), "--cache", c.cache_path,
                          "--max-bytes", std::to_string(c.max_bytes)});
      };
      const modis::Status started =
          modis::WorkerPool::Start(pool_options, &host->pool_);
      if (!started.ok()) {
        *error = "worker pool: " + started.ToString();
        return nullptr;
      }
    } else {
      for (const TaskSpec& task : Tasks()) {
        const modis::Status loaded = host->service_->Preload(task.name);
        if (!loaded.ok()) {
          *error = "preload: " + loaded.ToString();
          return nullptr;
        }
      }
    }
    modis::DiscoveryService* service = host->service_.get();
    modis::WorkerPool* pool = host->pool_.get();
    host->server_ = std::make_unique<modis::LineServer>(
        [service, pool](const std::string& line) {
          return modis::HandleServiceLine(service, pool, line);
        },
        modis::LineServer::Options(), service->metrics());
    modis::Endpoint endpoint;
    endpoint.kind = modis::Endpoint::Kind::kTcp;
    endpoint.host = "127.0.0.1";
    const modis::Status listening = host->server_->Listen(endpoint);
    if (!listening.ok()) {
      *error = "listen: " + listening.ToString();
      return nullptr;
    }
    host->endpoint_ = host->server_->endpoints().front();
    modis::LineServer* server = host->server_.get();
    host->serve_thread_ = std::thread([server] { server->Serve(); });
    return host;
  }

  ~Host() {
    if (server_ != nullptr) server_->RequestStop();
    if (serve_thread_.joinable()) serve_thread_.join();
    server_.reset();
    if (pool_ != nullptr) pool_->Stop();
    pool_.reset();
    service_.reset();
  }

  const modis::Endpoint& endpoint() const { return endpoint_; }

  /// Peak RSS of the host: this process plus every live worker.
  double PeakRssMbTotal() const {
    double total = PeakRssMb(getpid());
    if (pool_ != nullptr) {
      for (const auto& w : pool_->SnapshotWorkers()) {
        if (w.alive) total += PeakRssMb(w.pid);
      }
    }
    return total;
  }

 private:
  Host() = default;
  std::unique_ptr<modis::DiscoveryService> service_;
  std::unique_ptr<modis::WorkerPool> pool_;
  std::unique_ptr<modis::LineServer> server_;
  std::thread serve_thread_;
  modis::Endpoint endpoint_;
};

// ------------------------------------------------------------ load

struct Planned {
  double at_ms = 0.0;  // Offset from the phase start.
  DiscoveryRequest request;
  int klass = kExact;
};

struct Outcome {
  double sched_ms = 0.0;
  double send_ms = 0.0;
  double done_ms = 0.0;
  /// How late the generator itself sent: send time minus the later of
  /// the scheduled time and the connection's previous completion.
  double lag_ms = 0.0;
  bool ok = false;
  bool shed = false;
  std::string error;
  int klass = kExact;
  std::string key;
  DiscoveryResponse response;
  double latency_ms() const { return done_ms - sched_ms; }
};

/// Sends `plan` over `connections` connections (entry i on connection
/// i % connections). Open loop: each entry waits for its scheduled time
/// and latency counts from it. Closed loop: entries go back to back.
std::vector<Outcome> Drive(const modis::Endpoint& endpoint,
                           const std::vector<Planned>& plan, bool open_loop,
                           SpanStore* store, int parent,
                           size_t connections = kConnections) {
  connections = std::min(connections, plan.size());
  std::vector<Outcome> outcomes(plan.size());
  const auto t0 = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(open_loop ? 20 : 0);
  auto ms_since = [t0](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double, std::milli>(t - t0).count();
  };
  std::atomic<size_t> next{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      auto channel = modis::ClientChannel::Connect(endpoint);
      double prev_done = 0.0;
      for (size_t k = c;; k += connections) {
        const size_t i = open_loop ? k : next.fetch_add(1);
        if (i >= plan.size()) break;
        Outcome& out = outcomes[i];
        out.klass = plan[i].klass;
        out.key = RequestKey(plan[i].request);
        if (open_loop) {
          // Sleep to just before the due time, then spin: a timer wakeup
          // on a virtual machine can be late by a millisecond, which
          // would count against the host.
          const auto due =
              t0 + std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           plan[i].at_ms));
          std::this_thread::sleep_until(due - std::chrono::microseconds(500));
          while (std::chrono::steady_clock::now() < due) {
          }
        }
        const double send = ms_since(std::chrono::steady_clock::now());
        out.sched_ms = open_loop ? plan[i].at_ms : send;
        out.send_ms = send;
        out.lag_ms = open_loop ? send - std::max(out.sched_ms, prev_done) : 0;
        DiscoveryRequest request = plan[i].request;
        request.trace = store != nullptr;
        if (!channel.ok()) channel = modis::ClientChannel::Connect(endpoint);
        modis::Result<std::string> reply =
            channel.ok() ? channel->RoundTrip(
                               modis::SerializeDiscoveryRequest(request))
                         : modis::Result<std::string>(channel.status());
        out.done_ms = ms_since(std::chrono::steady_clock::now());
        prev_done = out.done_ms;
        if (!reply.ok()) {
          out.error = reply.status().ToString();
          channel = modis::Result<modis::ClientChannel>(reply.status());
          continue;
        }
        auto response = modis::ParseDiscoveryResponse(reply.value());
        if (!response.ok()) {
          out.shed = response.status().code() ==
                     modis::StatusCode::kResourceExhausted;
          out.error = response.status().ToString();
          continue;
        }
        out.ok = true;
        out.response = std::move(response).value();
        if (store != nullptr) {
          const int dispatch = store->Add("dispatch", parent, out.send_ms,
                                          out.done_ms - out.send_ms);
          double root_ms = 0.0;
          for (const modis::TraceSpan& s : out.response.trace_spans) {
            if (s.parent == modis::kNoSpan) root_ms += s.duration_ms;
          }
          const double gap = std::max(0.0, out.done_ms - out.send_ms - root_ms);
          store->Graft(out.response.trace_spans, dispatch,
                       out.send_ms + gap / 2.0);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return outcomes;
}

/// `count` requests cycling through a seed-shuffled copy of `set`, at
/// `rate` per second (open loop) or back to back (rate 0).
std::vector<Planned> CyclePlan(const std::vector<DiscoveryRequest>& set,
                               size_t count, double rate, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<size_t> order(set.size());
  std::vector<Planned> plan;
  for (size_t i = 0; i < count; ++i) {
    if (i % set.size() == 0) {
      for (size_t j = 0; j < order.size(); ++j) order[j] = j;
      std::shuffle(order.begin(), order.end(), rng);
    }
    Planned p;
    p.request = set[order[i % set.size()]];
    p.at_ms = rate > 0 ? 1000.0 * double(i) / rate : 0.0;
    plan.push_back(std::move(p));
  }
  return plan;
}

/// serve_mixed's traffic: blocks of kBlock queries with a fixed class
/// count each, positions shuffled by the seed. Novel queries each get a
/// fresh cache namespace (the host's training fuser would otherwise
/// serve a repeat of one even with the cache off).
std::vector<Planned> MixedPlan(size_t count, double rate, uint64_t seed) {
  const std::vector<DiscoveryRequest> exact = RepeatSet("exact");
  const std::vector<DiscoveryRequest> gbm = RepeatSet("gbm");
  const std::vector<DiscoveryRequest> novel = NovelBase();
  std::mt19937_64 rng(seed ^ 0x6d69786564ull);
  std::vector<int> classes;
  while (classes.size() < count) {
    std::vector<int> block(kBlock, kExact);
    for (size_t i = 0; i < kNovelPerBlock; ++i) block[i] = kNovel;
    for (size_t i = 0; i < kGbmPerBlock; ++i) block[kNovelPerBlock + i] = kGbm;
    std::shuffle(block.begin(), block.end(), rng);
    classes.insert(classes.end(), block.begin(), block.end());
  }
  classes.resize(count);
  size_t counts[3] = {0, 0, 0};
  for (int k : classes) ++counts[k];
  const std::vector<Planned> exact_plan = CyclePlan(exact, counts[0], 0, seed);
  const std::vector<Planned> gbm_plan = CyclePlan(gbm, counts[1], 0, seed + 1);
  // Novel requests in canonical order (a fixed multiset for a given
  // count), placed at seed-shuffled novel slots.
  std::vector<DiscoveryRequest> novel_requests;
  for (size_t i = 0; i < counts[2]; ++i) {
    novel_requests.push_back(novel[i % novel.size()]);
  }
  std::shuffle(novel_requests.begin(), novel_requests.end(), rng);
  std::vector<Planned> plan;
  size_t used[3] = {0, 0, 0};
  for (size_t i = 0; i < count; ++i) {
    Planned p;
    p.klass = classes[i];
    if (p.klass == kExact) p.request = exact_plan[used[0]].request;
    if (p.klass == kGbm) p.request = gbm_plan[used[1]].request;
    if (p.klass == kNovel) {
      p.request = novel_requests[used[2]];
      p.request.cache_namespace = "novel-" + std::to_string(seed) + "-" +
                                  std::to_string(used[2]);
    }
    ++used[p.klass];
    p.at_ms = 1000.0 * double(i) / rate;
    plan.push_back(std::move(p));
  }
  return plan;
}

/// Queries of one round's mixed slice: whole blocks only, so every class
/// count is fixed by --seconds.
size_t MixedSliceCount(int seconds) {
  const double queries = kMixedRate * seconds / kMixedSlice;
  return kBlock * std::max<size_t>(1, size_t(std::lround(queries / kBlock)));
}

// ------------------------------------------------------------ pass state

struct ServeState {
  const RunOptions* options = nullptr;
  const Reference* ref = nullptr;
  PassResult* pass = nullptr;
  std::map<std::string, uint64_t> digests;  // Key -> digest seen.
  std::map<std::string, double> hv;         // Key -> hypervolume.
  size_t exact_evals = 0;

  /// Counts and checks every outcome of a phase.
  void Account(const std::vector<Outcome>& outcomes, const char* phase) {
    for (const Outcome& o : outcomes) {
      ++pass->attempted;
      if (!o.ok) {
        ++pass->failed;
        pass->Fail(std::string(phase) + ": " + o.key + ": " +
                   (o.shed ? "shed: " : "failed: ") + o.error);
        continue;
      }
      exact_evals += o.response.exact_evals;
      const uint64_t digest = SkylineDigest(o.response);
      const auto it = ref->answers.find(o.key);
      if (it == ref->answers.end()) {
        pass->Fail(std::string(phase) + ": no reference answer for " + o.key);
      } else if (it->second.digest != digest) {
        pass->Fail(std::string(phase) + ": " + o.key +
                   ": answer differs from the recorded cold answer");
      }
      digests[o.key] = digest;
      hv[o.key] = SkylineHypervolume(o.response);
    }
  }
};

std::vector<double> Latencies(const std::vector<Outcome>& outcomes,
                              int klass = -1) {
  std::vector<double> out;
  for (const Outcome& o : outcomes) {
    if (o.ok && (klass < 0 || o.klass == klass)) out.push_back(o.latency_ms());
  }
  return out;
}

/// True when the schedule slipped more over the last tenth of the phase
/// than over the first tenth by over `slack_ms`: a backlog that grows.
bool GrowingBacklog(const std::vector<Outcome>& outcomes, double slack_ms) {
  const size_t n = outcomes.size() / 10;
  if (n == 0) return false;
  std::vector<double> head, tail;
  for (size_t i = 0; i < n; ++i) {
    head.push_back(outcomes[i].send_ms - outcomes[i].sched_ms);
    const Outcome& t = outcomes[outcomes.size() - 1 - i];
    tail.push_back(t.send_ms - t.sched_ms);
  }
  return Mean(tail) > Mean(head) + slack_ms;
}

double GridRate(int k) { return kGridBase * std::pow(kGrid, k); }

/// One max_qps_at_slo probe: open-loop exact repeats at rung k's rate.
/// Records log(p99); a probe with a failed request records a huge value,
/// and one whose backlog grew at least the SLO (a miss, but one that
/// keeps the estimate continuous across the rung).
void ProbeRung(const modis::Endpoint& endpoint, int k, ServeState* state,
               uint64_t seed, std::map<int, std::vector<double>>* log_p99) {
  const double slo = state->options->slo_ms;
  const double rate = GridRate(k);
  const size_t count =
      std::max(kProbeQueries, size_t(std::lround(rate * kProbeSeconds)));
  const std::vector<Outcome> outcomes =
      Drive(endpoint, CyclePlan(RepeatSet("exact"), count, rate, seed + k),
            true, nullptr, -1);
  state->Account(outcomes, "slo_probe");
  const std::vector<double> lat = Latencies(outcomes);
  double p99 = lat.size() == outcomes.size() ? Percentile(lat, 0.99) : 1e9;
  if (GrowingBacklog(outcomes, slo)) p99 = std::max(p99, 1.001 * slo);
  (*log_p99)[k].push_back(std::log(std::max(p99, 1e-3)));
}

/// Highest offered rate at which p99 stays within the SLO: per rung the
/// median log(p99) over the rounds, a non-decreasing least-squares fit
/// over the rungs (pool-adjacent-violators, so one noisy rung cannot
/// decide), and linear interpolation where the fit crosses the SLO.
/// Returns 0 and records a failure when the rungs do not bracket it.
double MaxQpsAtSlo(const std::map<int, std::vector<double>>& log_p99,
                   double slo, PassResult* pass) {
  std::vector<int> rungs;
  std::vector<double> fit, weight;
  for (const auto& [k, values] : log_p99) {
    rungs.push_back(k);
    fit.push_back(Percentile(values, 0.5));
    weight.push_back(1.0);
    while (fit.size() >= 2 && fit[fit.size() - 2] > fit.back()) {
      const double w = weight[weight.size() - 2] + weight.back();
      const double merged = (fit[fit.size() - 2] * weight[weight.size() - 2] +
                             fit.back() * weight.back()) /
                            w;
      fit.pop_back();
      weight.pop_back();
      fit.back() = merged;
      weight.back() = w;
    }
  }
  std::vector<double> curve;  // One fitted value per rung.
  for (size_t b = 0; b < fit.size(); ++b) {
    for (int i = 0; i < int(weight[b]); ++i) curve.push_back(fit[b]);
  }
  const double limit = std::log(slo);
  if (curve.empty() || curve.front() > limit || curve.back() <= limit) {
    pass->Fail(std::string("max_qps_at_slo: the search found no limit (") +
               (!curve.empty() && curve.back() <= limit
                    ? "the highest rate tried still met the SLO)"
                    : "no rate tried met the SLO)"));
    return 0.0;
  }
  size_t i = 0;
  while (curve[i + 1] <= limit) ++i;
  const double frac = curve[i + 1] > curve[i]
                          ? (limit - curve[i]) / (curve[i + 1] - curve[i])
                          : 0.0;
  const double lo = GridRate(rungs[i]);
  return lo + std::clamp(frac, 0.0, 1.0) * (GridRate(rungs[i + 1]) - lo);
}

/// Completions per second of a closed-loop phase.
double CompletionRate(const std::vector<Outcome>& outcomes) {
  double begin = 1e300, end = 0.0;
  for (const Outcome& o : outcomes) {
    begin = std::min(begin, o.send_ms);
    end = std::max(end, o.done_ms);
  }
  return end > begin ? double(Latencies(outcomes).size()) /
                           ((end - begin) / 1000.0)
                     : 0.0;
}

/// Starts the host and waits until it answers (every worker, in pool
/// mode). Returns null and records the failure on error.
std::unique_ptr<Host> StartReady(const HostConfig& config, ServeState* state) {
  std::string error;
  std::unique_ptr<Host> host = Host::Start(config, &error);
  if (host == nullptr) {
    state->pass->Fail("host start failed: " + error);
    return nullptr;
  }
  DiscoveryRequest ready = RepeatSet("exact")[16];  // A T3 repeat.
  std::set<std::string> answered;
  const size_t want = config.pool ? kWorkers : 1;
  modis::WallTimer waited;
  while (answered.size() < want && waited.Seconds() < 30.0) {
    std::vector<Planned> plan(want);
    for (Planned& p : plan) p.request = ready;
    for (const Outcome& o : Drive(host->endpoint(), plan, false, nullptr, -1)) {
      if (!o.ok) continue;
      // Worker ids read "q-w<N>-..."; in-process ids "q-...".
      const std::string& id = o.response.request_id;
      answered.insert(id.rfind("q-w", 0) == 0 ? id.substr(0, id.find('-', 3))
                                              : "host");
    }
  }
  if (answered.size() < want) {
    state->pass->Fail("host never became ready");
    return nullptr;
  }
  return host;
}

void AddServeLayers(const std::vector<Outcome>& outcomes, PassResult& pass) {
  double exact_ms = 0, train = 0, plan = 0, commit = 0, flush = 0, run = 0,
         context = 0, respond = 0, dispatch = 0;
  std::vector<double> admission, exact_durations, lag, sizes;
  DiscoveryResponse totals;
  double queries = 0;
  for (const Outcome& o : outcomes) {
    lag.push_back(o.lag_ms);
    if (!o.ok) continue;
    ++queries;
    const DiscoveryResponse& r = o.response;
    totals.exact_evals += r.exact_evals;
    totals.persistent_hits += r.persistent_hits;
    totals.surrogate_evals += r.surrogate_evals;
    totals.fused_hits += r.fused_hits;
    totals.cache_hits += r.cache_hits;
    totals.valuated_states += r.valuated_states;
    totals.generated_states += r.generated_states;
    totals.pruned_states += r.pruned_states;
    totals.mask_fast_path_hits += r.mask_fast_path_hits;
    sizes.push_back(double(r.skyline.size()));
    double root = 0.0, admit = 0.0;
    for (const modis::TraceSpan& s : r.trace_spans) {
      const double d = std::max(0.0, s.duration_ms);
      if (s.parent == modis::kNoSpan) root += d;
      if (s.name == "admission") admit += d;
      if (s.name == "exact") {
        exact_ms += d;
        exact_durations.push_back(d);
      }
      if (s.name == "train") train += d;
      if (s.name == "plan") plan += d;
      if (s.name == "commit") commit += d;
      if (s.name == "flush") flush += d;
      if (s.name == "run") run += d;
      if (s.name == "context") context += d;
      if (s.name == "respond") respond += d;
    }
    admission.push_back(admit);
    dispatch += std::max(0.0, o.done_ms - o.send_ms - root);
  }
  const double q = std::max(1.0, queries);
  // The host trains its own model clones, so one `exact` span (fit,
  // predict and scoring of one state) is the finest ml-level unit here.
  pass.Layer("storage.hits", double(totals.persistent_hits), "count");
  pass.Layer("storage.appends", double(totals.exact_evals), "count");
  pass.Layer("storage.flush_ms", flush / q, "ms");
  pass.Layer("ml.fits", double(exact_durations.size()), "count");
  pass.Layer("ml.fit_ms", exact_ms / q, "ms");
  pass.Layer("ml.fit_p50_ms", Percentile(exact_durations, 0.5), "ms");
  pass.Layer("ml.predict_ms", 0.0, "ms");
  pass.Layer("estimator.evaluate_ms", exact_ms / q, "ms");
  pass.Layer("estimator.score_ms", 0.0, "ms");
  pass.Layer("estimator.train_ms", train / q, "ms");
  pass.Layer("estimator.train_parallelism", train > 0 ? exact_ms / train : 0.0,
             "ratio");
  pass.Layer("estimator.plan_ms", plan / q, "ms");
  pass.Layer("estimator.commit_ms", commit / q, "ms");
  pass.Layer("estimator.exact_evals", double(totals.exact_evals), "count");
  pass.Layer("estimator.surrogate_evals", double(totals.surrogate_evals),
             "count");
  pass.Layer("estimator.fused_hits", double(totals.fused_hits), "count");
  pass.Layer("estimator.cache_hits", double(totals.cache_hits), "count");
  pass.Layer("core.run_ms", run / q, "ms");
  pass.Layer("core.engine_self_ms", (run - plan - train - commit - flush) / q,
             "ms");
  pass.Layer("core.valuated_states", double(totals.valuated_states), "count");
  pass.Layer("core.generated_states", double(totals.generated_states),
             "count");
  pass.Layer("core.pruned_states", double(totals.pruned_states), "count");
  pass.Layer("core.mask_fast_path_hits", double(totals.mask_fast_path_hits),
             "count");
  pass.Layer("moo.skyline_size", Mean(sizes), "count");
  pass.Layer("service.admission_ms_p50", Percentile(admission, 0.5), "ms");
  pass.Layer("service.admission_ms_p99", Percentile(admission, 0.99), "ms");
  pass.Layer("service.context_ms", context / q, "ms");
  pass.Layer("service.respond_ms", respond / q, "ms");
  pass.Layer("service.dispatch_ms", dispatch / q, "ms");
  pass.Layer("loadgen.lag_ms", Percentile(lag, 0.99), "ms");
}

/// The host's `metrics` verb, as a flat name -> number map.
std::map<std::string, double> HostMetrics(const modis::Endpoint& endpoint) {
  std::map<std::string, double> out;
  auto channel = modis::ClientChannel::Connect(endpoint);
  if (!channel.ok()) return out;
  auto reply = channel->RoundTrip("{\"verb\":\"metrics\"}");
  if (!reply.ok()) return out;
  auto doc = modis::JsonValue::Parse(reply.value());
  if (!doc.ok()) return out;
  const modis::JsonValue* metrics = doc->Get("metrics");
  if (metrics == nullptr || !metrics->is_object()) return out;
  for (const auto& [name, value] : metrics->AsObject()) {
    if (value.is_number()) out[name] = value.AsNumber();
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------ roles

/// Untimed preparation of a serve run, in its own process so its memory
/// never counts toward the host's peak RSS: writes the seeded synthetic
/// history (public Insert/Flush), then answers every repeat query once on
/// a cold host appending the working set behind it, and records each
/// answer's digest as the reference the measured run must reproduce.
int PrepMain(int argc, char** argv) {
  const std::string dir = Arg(argc, argv, "--dir");
  const uint64_t seed = std::stoull(Arg(argc, argv, "--seed", "1"));
  const std::string start = dir + "/start.rlog";
  fs::remove(start);
  {
    auto cache = modis::PersistentRecordCache::Open(
        start, modis::CacheMode::kReadWrite, 0);
    if (!cache.ok()) {
      std::fprintf(stderr, "prep: %s\n", cache.status().ToString().c_str());
      return 1;
    }
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<uint64_t> fingerprints(kHistoryFingerprints);
    for (uint64_t& fp : fingerprints) fp = rng() | 1;
    for (size_t i = 0; i < kHistoryRecords; ++i) {
      std::string key(20, '0');
      for (char& c : key) c = (rng() & 1) ? '1' : '0';
      std::vector<double> features(24);
      for (double& f : features) f = unit(rng);
      modis::Evaluation eval;
      for (int m = 0; m < 4; ++m) {
        eval.raw.push_back(unit(rng));
        eval.normalized.push_back(1.0 - eval.raw.back());
      }
      (*cache)->Insert(fingerprints[i % kHistoryFingerprints], key, features,
                       eval);
    }
    const modis::Status flushed = (*cache)->Flush();
    if (!flushed.ok()) {
      std::fprintf(stderr, "prep: %s\n", flushed.ToString().c_str());
      return 1;
    }
  }
  std::ofstream out(dir + "/reference.txt");
  std::vector<std::string> probes;
  {
    modis::DiscoveryService::Options options;
    options.sessions = 1;
    options.valuation_threads = kConnections;
    options.task_row_scale = kRowScale;
    options.default_cache_path = start;
    options.cache_max_bytes = 0;
    modis::DiscoveryService service(options);
    auto answer = [&service](const DiscoveryRequest& r) {
      return modis::ParseDiscoveryResponse(modis::HandleServiceLine(
          &service, modis::SerializeDiscoveryRequest(r)));
    };
    std::vector<DiscoveryRequest> all = RepeatSet("exact");
    for (const DiscoveryRequest& r : RepeatSet("gbm")) all.push_back(r);
    // Round 0 answers cold (and appends the working set); round 1 must
    // replay every answer bit for bit and becomes the reference.
    std::map<std::string, uint64_t> cold;
    for (int round = 0; round < 2; ++round) {
      for (const DiscoveryRequest& r : all) {
        auto response = answer(r);
        if (!response.ok() || response->skyline.empty()) {
          std::fprintf(stderr, "prep: %s failed\n", RequestKey(r).c_str());
          return 1;
        }
        const uint64_t digest = SkylineDigest(*response);
        if (round == 0) {
          cold[RequestKey(r)] = digest;
          continue;
        }
        if (cold[RequestKey(r)] != digest) {
          out << "cold_warm_mismatch " << RequestKey(r) << '\n';
        }
        out << "answer " << RequestKey(r) << ' ' << Hex64(digest) << ' '
            << response->valuated_states << '\n';
      }
    }
    // Bytes one novel training appends, per task: one cold query into a
    // scratch file of its own.
    for (const TaskSpec& task : Tasks()) {
      DiscoveryRequest r;
      for (const DiscoveryRequest& n : NovelBase()) {
        if (n.task == task.name) {
          r = n;
          break;
        }
      }
      if (r.task.empty()) continue;
      r.cache_path = dir + "/probe-" + task.name + ".rlog";
      r.cache_namespace = "probe";
      fs::remove(r.cache_path);
      probes.push_back(r.cache_path);
      auto response = answer(r);
      if (!response.ok() || response->exact_evals == 0) {
        std::fprintf(stderr, "prep: probe %s failed\n", task.name);
        return 1;
      }
      // Every batch commit flushes, so the file already holds them all.
      const double bytes = double(fs::file_size(r.cache_path)) -
                           double(modis::RecordLog::kHeaderSize);
      out << "bytes_per_training " << task.name << ' '
          << bytes / double(response->exact_evals) << '\n';
    }
  }
  for (const std::string& probe : probes) fs::remove(probe);
  out << "start_bytes " << fs::file_size(start) << '\n';
  return out ? 0 : 1;
}

/// A pool worker: a shared-cache DiscoveryService draining the ring.
int WorkerMain(int argc, char** argv) {
  const uint32_t index = uint32_t(std::stoul(Arg(argc, argv, "--index", "0")));
  modis::DiscoveryService::Options options;
  options.sessions = 1;
  options.valuation_threads = kWorkerThreads;
  options.task_row_scale = kRowScale;
  options.default_cache_path = Arg(argc, argv, "--cache");
  options.cache_max_bytes = std::stoull(Arg(argc, argv, "--max-bytes", "0"));
  options.shared_cache = true;
  options.request_id_prefix = "q-w" + std::to_string(index) + "-";
  modis::DiscoveryService service(options);
  for (const TaskSpec& task : Tasks()) {
    if (!service.Preload(task.name).ok()) return 1;
  }
  modis::WorkerOptions worker;
  worker.ring_path = Arg(argc, argv, "--ring");
  worker.worker_index = index;
  worker.poll_ms = 20;
  return modis::RunWorkerLoop(&service, worker).ok() ? 0 : 1;
}

// ------------------------------------------------------------ workloads

PassResult RunServe(const RunOptions& options, SpanStore* store) {
  PassResult pass;
  const bool pool = options.workload == "serve_pool";
  const bool warm_only = options.workload == "serve_warm";

  // ---- Untimed prep (child process).
  {
    const pid_t pid = SpawnSelf(options.self_exe,
                                {"--role", "prep", "--dir", options.work_dir,
                                 "--seed", std::to_string(options.seed)});
    int status = 0;
    if (pid < 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      pass.Fail("cache-history prep failed");
      return pass;
    }
  }
  Reference ref;
  if (!LoadReference(options.work_dir + "/reference.txt", &ref)) {
    pass.Fail("prep wrote no usable reference");
    return pass;
  }
  for (const std::string& key : ref.mismatches) {
    pass.Fail(key + ": warm replay differs from the cold answer");
  }
  const std::string start = options.work_dir + "/start.rlog";
  const std::string live = options.work_dir + "/live.rlog";
  const size_t start_records = CountRecords(start);

  // Byte budget: the start file fits; half of the novel volume of one
  // round of serve_mixed (the same schedule for every serve workload)
  // does not.
  const std::vector<Planned> mixed_plan = MixedPlan(
      MixedSliceCount(options.seconds) * kRounds, kMixedRate, options.seed);
  double novel_bytes = 0.0;
  for (const Planned& p : mixed_plan) {
    if (p.klass != kNovel) continue;
    novel_bytes += ref.bytes_per_training[p.request.task] *
                   double(ref.answers[RequestKey(p.request)].valuated);
  }
  HostConfig config;
  config.pool = pool;
  config.cache_path = live;
  config.max_bytes = ref.start_bytes + uint64_t(novel_bytes / kRounds / 2.0);
  config.ring_path = options.work_dir + "/ring.shm";
  config.self_exe = options.self_exe;

  ServeState state;
  state.options = &options;
  state.ref = &ref;
  state.pass = &pass;

  // ---- Per-layer setup calls (traced pass only): the same lake,
  // universe and cache-open work the host does at start, timed from here.
  if (store != nullptr) {
    std::vector<double> build, universe, open;
    size_t loaded = 0;
    for (int rep = 0; rep < kRounds; ++rep) {
      ScopedSpan setup(store, "setup_calls");
      double b = 0, u = 0;
      for (modis::BenchTaskId id :
           {modis::BenchTaskId::kMovie, modis::BenchTaskId::kHouse,
            modis::BenchTaskId::kAvocado, modis::BenchTaskId::kMental}) {
        modis::WallTimer t;
        modis::Result<modis::TabularBench> bench = [&] {
          ScopedSpan span(store, "bench_build", setup.id());
          return modis::MakeTabularBench(id, kRowScale);
        }();
        b += t.Millis();
        if (!bench.ok()) continue;
        modis::WallTimer tu;
        {
          ScopedSpan span(store, "universe_build", setup.id());
          (void)modis::SearchUniverse::Build(bench->universal,
                                             bench->universe_options);
        }
        u += tu.Millis();
      }
      build.push_back(b);
      universe.push_back(u);
      modis::WallTimer to;
      ScopedSpan span(store, "cache_open", setup.id());
      auto cache = modis::PersistentRecordCache::Open(
          start, modis::CacheMode::kRead, 0);
      open.push_back(to.Millis());
      if (cache.ok()) loaded = (*cache)->stats().loaded_records;
    }
    pass.Layer("datagen.bench_build_ms", Percentile(build, 0.5), "ms");
    pass.Layer("core.universe_build_ms", Percentile(universe, 0.5), "ms");
    pass.Layer("storage.open_ms", Percentile(open, 0.5), "ms");
    pass.Layer("storage.records_loaded", double(loaded), "count");
    pass.Layer("storage.file_mb", double(ref.start_bytes) / (1 << 20), "MiB");
  }

  // ---- Rounds.
  const std::vector<DiscoveryRequest> first = RepeatSet("exact");
  std::vector<double> setup_s, saturation_qps, peak_rss, dropped;
  std::vector<double> p50, p90, p99, repeat_p99;
  std::vector<Outcome> first_seen, all_main;
  std::map<int, std::vector<double>> log_p99;
  std::map<std::string, double> host_metrics;  // Summed over rounds.
  int first_rung = 0;
  size_t novel_trained = 0, repeat_trainings = 0;
  for (int round = 0; round < kRounds; ++round) {
    fs::copy_file(start, live, fs::copy_options::overwrite_existing);
    // Restart the peak-RSS watermark so each round reads its own host.
    std::ofstream("/proc/self/clear_refs") << "5";
    std::unique_ptr<Host> host;
    {
      ScopedSpan span(store, "host_start");
      modis::WallTimer timer;
      host = StartReady(config, &state);
      if (host == nullptr) return pass;
      setup_s.push_back(timer.Seconds());
    }
    const modis::Endpoint endpoint = host->endpoint();
    const uint64_t round_seed = options.seed * 100 + uint64_t(round);
    const size_t exact_before = state.exact_evals;

    // The first answer of every repeat request after the restart (one
    // client, seeded order). On serve_warm these are its novel_p50_ms
    // sample: new to the process, recorded in the file.
    const std::vector<Outcome> answers = Drive(
        endpoint, CyclePlan(first, first.size(), 0, round_seed), false,
        nullptr, -1, 1);
    state.Account(answers, "first_answers");
    first_seen.insert(first_seen.end(), answers.begin(), answers.end());

    // Saturation: closed loop, every connection busy, exact repeats.
    const std::vector<Outcome> saturation = Drive(
        endpoint,
        CyclePlan(RepeatSet("exact"), kSaturationPerClient * kConnections, 0,
                  round_seed + 7),
        false, nullptr, -1);
    state.Account(saturation, "saturation");
    saturation_qps.push_back(CompletionRate(saturation));

    // The workload's main open-loop slice.
    std::vector<Planned> plan;
    if (warm_only) {
      plan = CyclePlan(RepeatSet("exact"),
                       size_t(std::lround(kWarmRate * options.seconds /
                                          kWarmSlice)),
                       kWarmRate, round_seed);
    } else {
      const size_t per_round = MixedSliceCount(options.seconds);
      plan.assign(mixed_plan.begin() + round * per_round,
                  mixed_plan.begin() + (round + 1) * per_round);
      const double offset = plan.front().at_ms;
      for (Planned& p : plan) p.at_ms -= offset;
    }
    std::vector<Outcome> main;
    {
      ScopedSpan phase(store, "main_phase");
      main = Drive(endpoint, plan, true, store, phase.id());
    }
    state.Account(main, "main");
    size_t round_novel = 0;
    for (const Outcome& o : main) {
      if (o.ok && o.klass == kNovel) round_novel += o.response.exact_evals;
    }
    std::vector<Outcome> repeats;
    for (const Outcome& o : main) {
      if (o.klass != kNovel) repeats.push_back(o);
    }
    p50.push_back(Percentile(Latencies(main), 0.50));
    p90.push_back(Percentile(Latencies(main), 0.90));
    p99.push_back(Percentile(Latencies(main), 0.99));
    repeat_p99.push_back(Percentile(Latencies(repeats), 0.99));
    all_main.insert(all_main.end(), main.begin(), main.end());
    std::fprintf(stderr,
                 "round %d: setup %.4f s, saturation %.0f/s, main p50 %.3f "
                 "p90 %.3f p99 %.3f ms, repeats p99 %.3f ms\n",
                 round, setup_s.back(), saturation_qps.back(), p50.back(),
                 p90.back(), p99.back(), repeat_p99.back());

    // Capacity probes.
    if (round == 0) {
      first_rung = std::max(
          0, int(std::floor(std::log(std::max(kStartShare * saturation_qps[0],
                                              kGridBase) /
                                     kGridBase) /
                            std::log(kGrid))));
    }
    for (int k = first_rung; k < first_rung + kProbeRungs; ++k) {
      ProbeRung(endpoint, k, &state, round_seed * 31, &log_p99);
    }
    // The last round widens the grid until the medians bracket the SLO.
    const double limit = std::log(options.slo_ms);
    for (int extra = 0; round + 1 == kRounds && extra < 4; ++extra) {
      const auto median = [&](int k) {
        return Percentile(log_p99.at(k), 0.5);
      };
      const int top = log_p99.rbegin()->first;
      const int bottom = log_p99.begin()->first;
      if (median(top) <= limit) {
        ProbeRung(endpoint, top + 1, &state, round_seed * 31, &log_p99);
      } else if (median(bottom) > limit && bottom > 0) {
        ProbeRung(endpoint, bottom - 1, &state, round_seed * 31, &log_p99);
      } else {
        break;
      }
    }

    if (store != nullptr) {
      for (const auto& [name, value] : HostMetrics(endpoint)) {
        host_metrics[name] += value;
      }
    }
    peak_rss.push_back(host->PeakRssMbTotal());
    host.reset();  // Drains, flushes, stops the workers.

    // Accounting: trainings versus the records the file gained or lost.
    const size_t round_exact = state.exact_evals - exact_before;
    const size_t round_repeat = round_exact - round_novel;
    const double round_dropped = double(start_records) + double(round_exact) -
                                 double(CountRecords(live));
    novel_trained += round_novel;
    repeat_trainings += round_repeat;
    dropped.push_back(round_dropped);
    if (warm_only) {
      if (round_exact != 0) {
        pass.Fail("serve_warm trained " + std::to_string(round_exact) +
                  " states; it must replay every answer");
      }
      if (round_dropped != 0) {
        pass.Fail("serve_warm's working set did not fit the byte budget");
      }
      continue;
    }
    // In-process, recency keeps the working set resident. A pool worker
    // publishes through a fresh writer open whose recency is the file's
    // order, and compaction rewrites that order, so its evictions can
    // take working-set records: counted, not failed.
    if (!pool && round_repeat != 0) {
      pass.Fail(std::to_string(round_repeat) +
                " repeat-query trainings: only novel queries may train");
    }
    if (round_novel == 0) pass.Fail("no novel query trained");
    if (round_dropped <= 0) {
      pass.Fail("the cache byte budget was never exceeded");
    }
  }

  uint64_t combined = 1469598103934665603ull;
  for (const auto& [key, digest] : state.digests) {
    combined = Fnv1a(combined, key.data(), key.size());
    combined = Fnv1a(combined, &digest, sizeof(digest));
  }
  pass.answers_digest = Hex64(combined);

  const double novel_p50 = warm_only
                               ? Percentile(Latencies(first_seen), 0.5)
                               : Percentile(Latencies(all_main, kNovel), 0.5);
  pass.Add("setup_s", Percentile(setup_s, 0.5), "s");
  pass.Add("query_p50_ms", Percentile(p50, 0.5), "ms");
  pass.Add("query_p90_ms", Percentile(p90, 0.5), "ms");
  pass.Note("query_p99_ms", Percentile(p99, 0.5), "ms");
  pass.Add("throughput_qps", Percentile(saturation_qps, 0.5), "1/s");
  pass.Add("max_qps_at_slo", MaxQpsAtSlo(log_p99, options.slo_ms, &pass),
           "1/s");
  pass.Note("warm_p99_ms", Percentile(repeat_p99, 0.5), "ms");
  pass.Add("novel_p50_ms", novel_p50, "ms");
  // Mean over the distinct answers, so it is the same for every seed.
  std::vector<double> hv;
  for (const auto& [key, value] : state.hv) hv.push_back(value);
  pass.Add("skyline_hv", Mean(hv), "ratio");
  pass.Add("peak_rss_mb", Percentile(peak_rss, 0.5), "MiB");
  pass.Add("served_ratio",
           double(pass.attempted - pass.failed) /
               double(std::max<size_t>(1, pass.attempted)),
           "ratio");
  std::fprintf(stderr,
               "%s: %d rounds, %zu novel trainings, %zu repeat trainings, "
               "byte budget %llu, %.0f records dropped\n",
               options.workload.c_str(), kRounds, novel_trained,
               repeat_trainings, (unsigned long long)config.max_bytes,
               Mean(dropped) * kRounds);

  if (store == nullptr) return pass;
  AddServeLayers(all_main, pass);
  pass.Layer("storage.evicted",
             pool ? Mean(dropped) * kRounds : host_metrics["cache_evictions"],
             "count");
  pass.Layer("storage.compacted_away", Mean(dropped) * kRounds, "count");
  pass.Layer("storage.repeat_trainings", double(repeat_trainings), "count");
  for (const char* name : {"ring_installed", "ring_shed", "ring_requeued",
                           "ring_poisoned"}) {
    pass.Layer(std::string("service.") + name, host_metrics[name], "count");
  }
  return pass;
}

}  // namespace perfbench
