/// discover_cold: one closed-loop client sends a seeded sequence of novel
/// discovery queries straight into the four MODis variants over an
/// ExactOracle and a SupervisedEvaluator — no record cache, no training
/// fuser, no host. Exact model training is nearly all of the work.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>

#include "bench.h"
#include "common/timer.h"
#include "core/algorithms.h"
#include "datagen/tasks.h"
#include "estimator/oracle.h"

namespace perfbench {
namespace {

using modis::BenchTaskId;

/// Setups timed per run; setup_s is their median.
constexpr int kSetupRepeats = 9;
/// Nominal seconds of one pass over the query mix on a 4-core machine;
/// --seconds picks a whole number of passes (at least one), so the work
/// done is a fixed count for a given --seconds.
constexpr double kPassSeconds = 11.0;
/// Valuation threads of every engine run (the machine's 4 cores).
constexpr size_t kThreads = 4;

struct ColdTask {
  BenchTaskId id;
  const char* name;
  double row_scale;
  std::vector<std::string> measures;  // The task's set minus train_time.
};

const std::vector<ColdTask>& Tasks() {
  static const std::vector<ColdTask> tasks = {
      {BenchTaskId::kMovie, "T1", 0.4, {"acc", "fisher", "mi"}},
      {BenchTaskId::kHouse, "T2", 0.4, {"f1", "acc", "fisher", "mi"}},
      {BenchTaskId::kMental, "T4", 0.1, {"acc", "prec", "rec", "f1", "auc"}},
  };
  return tasks;
}

struct ColdQuery {
  size_t task = 0;  // Index into Tasks().
  std::string variant;
  double epsilon = 0.2;
};

/// The distinct queries of one pass, then the repeats that check
/// determinism (a repeat re-trains everything: there is no cache).
std::vector<ColdQuery> DistinctQueries() {
  return {{0, "apx", 0.2}, {0, "bi", 0.2},  {1, "apx", 0.2}, {1, "nobi", 0.2},
          {1, "bi", 0.2},  {1, "div", 0.2}, {2, "apx", 0.2}};
}
std::vector<ColdQuery> RepeatQueries() {
  return {{1, "bi", 0.2}, {0, "apx", 0.2}};
}

std::string QueryKey(const ColdQuery& q) {
  return std::string(Tasks()[q.task].name) + "/" + q.variant +
         "/eps=" + std::to_string(q.epsilon);
}

struct Context {
  modis::TabularBench bench;
  modis::SearchUniverse universe;
};

/// Times MlModel::Fit / Predict of every clone it hands out. Forwards
/// Name(), so ModelIdentity (and every fingerprint) is unchanged.
class TimedModel : public modis::MlModel {
 public:
  TimedModel(std::unique_ptr<modis::MlModel> inner, SpanStore* store)
      : inner_(std::move(inner)), store_(store) {}
  modis::Status Fit(const modis::MlDataset& train, modis::Rng* rng) override {
    ScopedSpan span(store_, "fit");
    return inner_->Fit(train, rng);
  }
  std::vector<double> Predict(const modis::Matrix& x) const override {
    ScopedSpan span(store_, "predict");
    return inner_->Predict(x);
  }
  std::vector<std::vector<double>> PredictProba(
      const modis::Matrix& x) const override {
    ScopedSpan span(store_, "predict");
    return inner_->PredictProba(x);
  }
  std::vector<double> FeatureImportance() const override {
    return inner_->FeatureImportance();
  }
  std::unique_ptr<modis::MlModel> Clone() const override {
    return std::make_unique<TimedModel>(inner_->Clone(), store_);
  }
  const char* Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<modis::MlModel> inner_;
  SpanStore* store_;
};

/// Times TaskEvaluator::Evaluate; forwards everything else.
class TimedEvaluator : public modis::TaskEvaluator {
 public:
  TimedEvaluator(modis::TaskEvaluator* inner, SpanStore* store)
      : inner_(inner), store_(store) {}
  const std::vector<modis::MeasureSpec>& measures() const override {
    return inner_->measures();
  }
  std::string ModelIdentity() const override {
    return inner_->ModelIdentity();
  }
  modis::Result<modis::Evaluation> Evaluate(
      const modis::Table& dataset) override {
    ScopedSpan span(store_, "evaluate", -1);
    return inner_->Evaluate(dataset);
  }

 private:
  modis::TaskEvaluator* inner_;
  SpanStore* store_;
};

/// Builds every task context of the mix; records datagen/universe spans.
modis::Result<std::vector<std::unique_ptr<Context>>> BuildContexts(
    SpanStore* store, int parent) {
  std::vector<std::unique_ptr<Context>> contexts;
  for (const ColdTask& task : Tasks()) {
    modis::Result<modis::TabularBench> bench = [&] {
      ScopedSpan span(store, "bench_build", parent);
      return modis::MakeTabularBench(task.id, task.row_scale);
    }();
    MODIS_RETURN_IF_ERROR(bench.status());
    modis::Result<modis::SearchUniverse> universe = [&] {
      ScopedSpan span(store, "universe_build", parent);
      return modis::SearchUniverse::Build(bench->universal,
                                          bench->universe_options);
    }();
    MODIS_RETURN_IF_ERROR(universe.status());
    contexts.push_back(std::make_unique<Context>(
        Context{std::move(bench).value(), std::move(universe).value()}));
  }
  return contexts;
}

modis::DiscoveryResponse ToResponse(const modis::ModisResult& result) {
  modis::DiscoveryResponse response;
  for (const modis::SkylineEntry& entry : result.skyline) {
    modis::DiscoverySkylineRow row;
    row.signature = entry.state.Signature();
    row.normalized = entry.eval.normalized;
    response.skyline.push_back(std::move(row));
  }
  response.valuated_states = result.valuated_states;
  response.generated_states = result.generated_states;
  response.pruned_states = result.pruned_states;
  response.exact_evals = result.oracle_stats.exact_evals;
  response.surrogate_evals = result.oracle_stats.surrogate_evals;
  response.cache_hits = result.oracle_stats.cache_hits;
  response.persistent_hits = result.oracle_stats.persistent_hits;
  response.fused_hits = result.oracle_stats.fused_hits;
  response.failed_evals = result.oracle_stats.failed_evals;
  response.mask_fast_path_hits = result.mask_fast_path_hits;
  return response;
}

/// Runs one query. Untraced: the public Run* entry point. Traced: the
/// same engine configuration with the span recorder attached and the
/// model/evaluator wrapped in timing decorators.
modis::Result<modis::DiscoveryResponse> RunQuery(const ColdQuery& q,
                                                 const Context& context,
                                                 SpanStore* store,
                                                 int parent) {
  const ColdTask& task = Tasks()[q.task];
  modis::SupervisedTask supervised = context.bench.task;
  supervised.measures.clear();
  for (const modis::MeasureSpec& m : context.bench.task.measures) {
    if (std::find(task.measures.begin(), task.measures.end(), m.name) !=
        task.measures.end()) {
      supervised.measures.push_back(m);
    }
  }
  modis::ModisConfig config;
  config.epsilon = q.epsilon;
  config.max_states = 120;
  config.max_level = 4;
  config.num_threads = kThreads;

  std::unique_ptr<modis::MlModel> prototype = context.bench.model->Clone();
  if (store != nullptr) {
    prototype = std::make_unique<TimedModel>(std::move(prototype), store);
  }
  modis::SupervisedEvaluator evaluator(supervised, std::move(prototype));
  if (store == nullptr) {
    modis::ExactOracle oracle(&evaluator);
    modis::Result<modis::ModisResult> result =
        q.variant == "apx"    ? modis::RunApxModis(context.universe, &oracle,
                                                   config)
        : q.variant == "nobi" ? modis::RunNoBiModis(context.universe, &oracle,
                                                    config)
        : q.variant == "bi"   ? modis::RunBiModis(context.universe, &oracle,
                                                  config)
                              : modis::RunDivModis(context.universe, &oracle,
                                                   config);
    MODIS_RETURN_IF_ERROR(result.status());
    return ToResponse(result.value());
  }
  const int first_span = store->size();
  TimedEvaluator timed(&evaluator, store);
  modis::ExactOracle oracle(&timed);
  MODIS_RETURN_IF_ERROR(modis::ApplyVariantFlags(q.variant, &config));
  modis::TraceRecorder recorder;
  const double epoch_ms = store->NowMs();
  modis::EngineRuntime runtime;
  runtime.trace = &recorder;
  runtime.trace_parent = recorder.Begin("run", modis::kNoSpan);
  modis::Result<modis::ModisResult> result =
      modis::ModisEngine(&context.universe, &oracle, config, runtime).Run();
  recorder.End(runtime.trace_parent);
  store->Graft(recorder.Snapshot(), parent, epoch_ms);
  store->Adopt("evaluate", "exact", first_span);
  MODIS_RETURN_IF_ERROR(result.status());
  return ToResponse(result.value());
}

double SumMs(const std::vector<Span>& spans, const std::string& name) {
  double sum = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) sum += std::max(0.0, s.dur_ms);
  }
  return sum;
}

std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(std::max(0.0, s.dur_ms));
  }
  return out;
}

}  // namespace

PassResult RunDiscoverCold(const RunOptions& options, SpanStore* store) {
  PassResult pass;

  // ---- Setup: every task context of the mix, kSetupRepeats times.
  std::vector<double> setup_s;
  std::vector<double> bench_build_ms, universe_build_ms;
  std::vector<std::unique_ptr<Context>> contexts;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    ScopedSpan setup_span(store, "setup");
    modis::WallTimer timer;
    auto built = BuildContexts(store, setup_span.id());
    setup_s.push_back(timer.Seconds());
    if (!built.ok()) {
      pass.Fail("context build failed: " + built.status().ToString());
      return pass;
    }
    contexts = std::move(built).value();
  }

  // ---- The seeded query sequence: each pass is the distinct queries
  // plus the repeats, in a seed-shuffled order with every repeat after
  // its first occurrence.
  const int passes =
      std::max(1, int(std::lround(double(options.seconds) / kPassSeconds)));
  std::mt19937_64 rng(options.seed);
  std::vector<ColdQuery> sequence;
  for (int p = 0; p < passes; ++p) {
    std::vector<ColdQuery> distinct = DistinctQueries();
    std::shuffle(distinct.begin(), distinct.end(), rng);
    std::vector<ColdQuery> repeats = RepeatQueries();
    std::shuffle(repeats.begin(), repeats.end(), rng);
    sequence.insert(sequence.end(), distinct.begin(), distinct.end());
    sequence.insert(sequence.end(), repeats.begin(), repeats.end());
  }

  std::map<std::string, uint64_t> first_digest;
  std::vector<double> latency_ms, novel_ms, repeat_ms;
  std::vector<double> hv;  // One per distinct answer.
  std::vector<size_t> skyline_sizes;
  modis::DiscoveryResponse totals;
  modis::WallTimer wall;
  for (const ColdQuery& q : sequence) {
    ++pass.attempted;
    ScopedSpan query_span(store, "query");
    modis::WallTimer timer;
    auto response =
        RunQuery(q, *contexts[q.task], store, query_span.id());
    const double ms = timer.Millis();
    if (!response.ok() || response->skyline.empty()) {
      ++pass.failed;
      pass.Fail(QueryKey(q) + ": " +
                (response.ok() ? "empty skyline"
                               : response.status().ToString()));
      continue;
    }
    latency_ms.push_back(ms);
    const uint64_t digest = SkylineDigest(*response);
    auto [it, inserted] = first_digest.emplace(QueryKey(q), digest);
    (inserted ? novel_ms : repeat_ms).push_back(ms);
    if (!inserted && it->second != digest) {
      pass.Fail(QueryKey(q) + ": repeat answer differs from the first");
    }
    if (inserted) hv.push_back(SkylineHypervolume(*response));
    skyline_sizes.push_back(response->skyline.size());
    totals.valuated_states += response->valuated_states;
    totals.generated_states += response->generated_states;
    totals.pruned_states += response->pruned_states;
    totals.exact_evals += response->exact_evals;
    totals.surrogate_evals += response->surrogate_evals;
    totals.cache_hits += response->cache_hits;
    totals.fused_hits += response->fused_hits;
    totals.mask_fast_path_hits += response->mask_fast_path_hits;
  }
  const double wall_s = wall.Seconds();

  uint64_t combined = 1469598103934665603ull;
  for (const auto& [key, digest] : first_digest) {
    combined = Fnv1a(combined, key.data(), key.size());
    combined = Fnv1a(combined, &digest, sizeof(digest));
  }
  pass.answers_digest = Hex64(combined);

  const double served = double(latency_ms.size());
  const double throughput = served / std::max(wall_s, 1e-9);
  pass.Add("setup_s", Percentile(setup_s, 0.5), "s");
  pass.Add("query_p50_ms", Percentile(latency_ms, 0.50), "ms");
  pass.Add("query_p90_ms", Percentile(latency_ms, 0.90), "ms");
  pass.Note("query_p99_ms", Percentile(latency_ms, 0.99), "ms");
  pass.Add("throughput_qps", throughput, "1/s");
  // One closed-loop client never queues, so the highest rate it sustains
  // is its completion rate.
  pass.Add("max_qps_at_slo", throughput, "1/s");
  pass.Note("warm_p99_ms", Percentile(repeat_ms, 0.99), "ms");
  pass.Add("novel_p50_ms", Percentile(novel_ms, 0.50), "ms");
  pass.Add("skyline_hv", Mean(hv), "ratio");
  pass.Add("peak_rss_mb", PeakRssMb(getpid()), "MiB");
  pass.Add("served_ratio", served / double(std::max<size_t>(1, pass.attempted)),
           "ratio");

  if (store == nullptr) return pass;

  // ---- Per-layer metrics from the traced pass.
  const std::vector<Span> spans = store->Snapshot();
  const double queries = std::max(1.0, served);
  std::vector<double> build_ms, universe_ms;
  {
    // Per setup repeat: the summed build time over the mix's tasks.
    std::vector<double> b(kSetupRepeats, 0.0), u(kSetupRepeats, 0.0);
    int rep = -1;
    for (const Span& s : spans) {
      if (s.name == "setup") ++rep;
      if (rep < 0 || rep >= kSetupRepeats) continue;
      if (s.name == "bench_build") b[size_t(rep)] += s.dur_ms;
      if (s.name == "universe_build") u[size_t(rep)] += s.dur_ms;
    }
    build_ms = b;
    universe_ms = u;
  }
  const double fit = SumMs(spans, "fit");
  const double predict = SumMs(spans, "predict");
  const double evaluate = SumMs(spans, "evaluate");
  const double train = SumMs(spans, "train");
  const double exact = SumMs(spans, "exact");
  const double plan = SumMs(spans, "plan");
  const double commit = SumMs(spans, "commit");
  const double flush = SumMs(spans, "flush");
  const double run = SumMs(spans, "run");
  std::vector<double> sizes(skyline_sizes.begin(), skyline_sizes.end());

  pass.Layer("datagen.bench_build_ms", Percentile(build_ms, 0.5), "ms");
  pass.Layer("core.universe_build_ms", Percentile(universe_ms, 0.5), "ms");
  pass.Layer("storage.open_ms", 0.0, "ms");
  pass.Layer("storage.records_loaded", 0.0, "count");
  pass.Layer("storage.file_mb", 0.0, "MiB");
  pass.Layer("storage.hits", double(totals.persistent_hits), "count");
  pass.Layer("storage.appends", 0.0, "count");
  pass.Layer("storage.flush_ms", flush / queries, "ms");
  pass.Layer("storage.evicted", 0.0, "count");
  pass.Layer("storage.compacted_away", 0.0, "count");
  pass.Layer("storage.repeat_trainings", 0.0, "count");
  pass.Layer("ml.fits", double(Durations(spans, "fit").size()), "count");
  pass.Layer("ml.fit_ms", fit / queries, "ms");
  pass.Layer("ml.fit_p50_ms", Percentile(Durations(spans, "fit"), 0.5), "ms");
  pass.Layer("ml.predict_ms", predict / queries, "ms");
  pass.Layer("estimator.evaluate_ms", evaluate / queries, "ms");
  pass.Layer("estimator.score_ms", (evaluate - fit - predict) / queries, "ms");
  pass.Layer("estimator.train_ms", train / queries, "ms");
  pass.Layer("estimator.train_parallelism", train > 0 ? exact / train : 0.0,
             "ratio");
  pass.Layer("estimator.plan_ms", plan / queries, "ms");
  pass.Layer("estimator.commit_ms", commit / queries, "ms");
  pass.Layer("estimator.exact_evals", double(totals.exact_evals), "count");
  pass.Layer("estimator.surrogate_evals", double(totals.surrogate_evals),
             "count");
  pass.Layer("estimator.fused_hits", double(totals.fused_hits), "count");
  pass.Layer("estimator.cache_hits", double(totals.cache_hits), "count");
  pass.Layer("core.run_ms", run / queries, "ms");
  pass.Layer("core.engine_self_ms",
             (run - plan - train - commit - flush) / queries, "ms");
  pass.Layer("core.valuated_states", double(totals.valuated_states), "count");
  pass.Layer("core.generated_states", double(totals.generated_states),
             "count");
  pass.Layer("core.pruned_states", double(totals.pruned_states), "count");
  pass.Layer("core.mask_fast_path_hits", double(totals.mask_fast_path_hits),
             "count");
  pass.Layer("moo.skyline_size", Mean(sizes), "count");
  for (const char* name :
       {"service.admission_ms_p50", "service.admission_ms_p99",
        "service.context_ms", "service.respond_ms", "service.dispatch_ms"}) {
    pass.Layer(name, 0.0, "ms");
  }
  for (const char* name : {"service.ring_installed", "service.ring_shed",
                           "service.ring_requeued", "service.ring_poisoned"}) {
    pass.Layer(name, 0.0, "count");
  }
  pass.Layer("loadgen.lag_ms", 0.0, "ms");
  return pass;
}

}  // namespace perfbench
