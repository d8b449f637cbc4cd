#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "core/report.h"
#include "exec/engine.h"
#include "metrics/qos.h"
#include "sched/policy.h"

namespace aqsios::benchmark {

using Clock = std::chrono::steady_clock;

double Median(std::vector<double> values) {
  AQSIOS_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Metric::Median() const { return benchmark::Median(values); }

double Metric::Min() const {
  return *std::min_element(values.begin(), values.end());
}

double Metric::Max() const {
  return *std::max_element(values.begin(), values.end());
}

namespace {

/// Every per-layer metric, in report order.
constexpr struct {
  const char* name;
  const char* unit;
} kLayerMetrics[] = {
    {"sched.pick_calls", "count"},
    {"sched.pick_s", "s"},
    {"sched.pick_ns_p50", "ns"},
    {"sched.pick_ns_p99", "ns"},
    {"sched.candidates_per_pick", "count"},
    {"sched.reconcile_calls", "count"},
    {"sched.reconcile_s", "s"},
    {"sched.share", "ratio"},
    {"sched.overhead_share", "ratio"},
    {"exec.engine_build_s", "s"},
    {"exec.run_s", "s"},
    {"exec.self_s", "s"},
    {"exec.dispatches", "count"},
    {"exec.train_len_mean", "tuples"},
    {"exec.invocations_per_emit", "ratio"},
    {"exec.peak_queued_tuples", "tuples"},
    {"exec.tuples_shed", "tuples"},
    {"metrics.record_calls", "count"},
    {"metrics.record_ns", "ns"},
    {"metrics.record_s", "s"},
    {"metrics.snapshot_s", "s"},
    {"metrics.max_slowdown", "ratio"},
    {"obs.tracer_overhead_pct", "%"},
    {"obs.events_kept", "count"},
    {"obs.events_dropped", "count"},
    {"core.shard_wall_sum_s", "s"},
    {"core.shard_wall_max_s", "s"},
    {"core.parallel_efficiency", "ratio"},
    {"core.thread_speedup", "ratio"},
    {"core.coordination_s", "s"},
    {"core.load_imbalance", "ratio"},
    {"core.migrations", "count"},
    {"core.steals", "count"},
    {"core.admission_refused", "arrivals"},
    {"core.routed_arrivals", "arrivals"},
    {"trace_overhead_pct", "%"},
};

/// Median wall time, in ns, of an empty steady_clock interval (two
/// back-to-back reads): the bias every timed sample carries.
double ClockBiasNs() {
  constexpr size_t kPairs = 20001;
  std::vector<double> ns(kPairs);
  for (double& x : ns) {
    const Clock::time_point a = Clock::now();
    const Clock::time_point b = Clock::now();
    x = std::chrono::duration<double, std::nano>(b - a).count();
  }
  std::nth_element(ns.begin(), ns.begin() + kPairs / 2, ns.end());
  return ns[kPairs / 2];
}

/// Call count of one group of scheduler entry points, and the wall time of
/// the sampled subset.
struct CallStats {
  int64_t calls = 0;
  int64_t sampled = 0;
  double sampled_ns = 0.0;

  /// Total seconds, extrapolated from the sampled calls.
  double Seconds() const {
    return sampled == 0 ? 0.0
                        : sampled_ns * 1e-9 * static_cast<double>(calls) /
                              static_cast<double>(sampled);
  }
};

/// Decorator over the real policy: implements every sched::Scheduler
/// virtual, forwards it, counts the pick and reconciliation calls and times
/// 1 in 16 of them. Forwarding leaves every decision to the wrapped policy,
/// so the run's result is unchanged (checked byte for byte).
class TimedScheduler final : public sched::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<sched::Scheduler> inner, double bias_ns)
      : inner_(std::move(inner)), bias_ns_(bias_ns) {}

  void Attach(const sched::UnitTable* units) override {
    inner_->Attach(units);
  }
  void OnEnqueue(int unit) override {
    Time(&reconcile_, [&] { inner_->OnEnqueue(unit); });
  }
  void OnDequeue(int unit) override {
    Time(&reconcile_, [&] { inner_->OnDequeue(unit); });
  }
  void OnBatchDequeue(int unit, int count) override {
    Time(&reconcile_, [&] { inner_->OnBatchDequeue(unit, count); });
  }
  void OnStatsUpdated() override { inner_->OnStatsUpdated(); }
  void OnCalibratedStats(const std::vector<int>& changed,
                         SimTime now) override {
    inner_->OnCalibratedStats(changed, now);
  }
  bool PickNext(SimTime now, sched::SchedulingCost* cost,
                std::vector<int>* out) override {
    bool picked = false;
    const double ns =
        Time(&pick_, [&] { picked = inner_->PickNext(now, cost, out); });
    if (ns >= 0.0) pick_ns_.push_back(ns);
    return picked;
  }
  const char* name() const override { return inner_->name(); }
  double ShedPriority(const sched::Unit& unit) const override {
    return inner_->ShedPriority(unit);
  }
  void ResyncQueues(SimTime now) override { inner_->ResyncQueues(now); }
  sched::SchedulerState ExportState() const override {
    return inner_->ExportState();
  }
  void ImportState(const sched::SchedulerState& state, SimTime now) override {
    inner_->ImportState(state, now);
  }

  const CallStats& pick() const { return pick_; }
  const CallStats& reconcile() const { return reconcile_; }
  /// Nearest-rank quantile of the sampled pick times (ns).
  double PickQuantileNs(double q) {
    if (pick_ns_.empty()) return 0.0;
    const size_t rank = std::min(
        pick_ns_.size() - 1,
        static_cast<size_t>(q * static_cast<double>(pick_ns_.size())));
    std::nth_element(pick_ns_.begin(), pick_ns_.begin() + rank,
                     pick_ns_.end());
    return pick_ns_[rank];
  }
  /// Seconds the run spent reading the clock for the samples.
  double InstrumentationSeconds() const {
    return static_cast<double>(pick_.sampled + reconcile_.sampled) *
           bias_ns_ * 1e-9;
  }

 private:
  /// Runs `call` and counts it. A xorshift draw picks 1 call in 16 to time,
  /// so the sample cannot alias with a periodic engine call pattern.
  /// Returns the timed call's bias-corrected ns, or -1 when not sampled.
  template <typename Call>
  double Time(CallStats* stats, Call&& call) {
    ++stats->calls;
    draw_ ^= draw_ << 13;
    draw_ ^= draw_ >> 7;
    draw_ ^= draw_ << 17;
    if ((draw_ & 15) != 0) {
      call();
      return -1.0;
    }
    const Clock::time_point start = Clock::now();
    call();
    const double ns = std::max(
        0.0,
        std::chrono::duration<double, std::nano>(Clock::now() - start)
                .count() -
            bias_ns_);
    ++stats->sampled;
    stats->sampled_ns += ns;
    return ns;
  }

  std::unique_ptr<sched::Scheduler> inner_;
  double bias_ns_;
  uint64_t draw_ = 0x9e3779b97f4a7c15ULL;
  CallStats pick_;
  CallStats reconcile_;
  std::vector<double> pick_ns_;
};

double Ratio(double numerator, double denominator) {
  return denominator != 0.0 ? numerator / denominator : 0.0;
}

/// Layer values by name; Set refuses names outside kLayerMetrics.
class LayerValues {
 public:
  void Set(const std::string& name, double value) {
    const bool known =
        std::any_of(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                    [&](const auto& m) { return name == m.name; });
    AQSIOS_CHECK(known) << "unknown layer metric " << name;
    values_[name] = value;
  }
  std::vector<Metric> Metrics() const {
    std::vector<Metric> out;
    for (const auto& m : kLayerMetrics) {
      const auto it = values_.find(m.name);
      out.push_back(
          {m.name, m.unit, "run", {it == values_.end() ? 0.0 : it->second}});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

void CompareToReference(const std::string& what, const core::RunResult& result,
                        const std::string& reference,
                        std::vector<std::string>* failures) {
  if (core::RunResultToJson(result) != reference) {
    failures->push_back(what + " result differs from the end-to-end result");
  }
}

/// The metrics that come from a run's result, on every workload.
void SetResultMetrics(const core::RunResult& result, LayerValues* v) {
  const exec::RunCounters& c = result.counters;
  v->Set("metrics.max_slowdown", result.qos.max_slowdown);
  v->Set("sched.candidates_per_pick",
         Ratio(static_cast<double>(c.decision_candidates),
               static_cast<double>(c.scheduling_points)));
  v->Set("sched.overhead_share",
         Ratio(c.overhead_time, c.busy_time + c.overhead_time));
  v->Set("exec.dispatches", static_cast<double>(c.scheduling_points));
  v->Set("exec.train_len_mean",
         c.train_dispatches > 0
             ? static_cast<double>(c.train_tuples) /
                   static_cast<double>(c.train_dispatches)
             : 1.0);
  v->Set("exec.invocations_per_emit",
         Ratio(static_cast<double>(c.operator_invocations),
               static_cast<double>(c.tuples_emitted)));
  v->Set("exec.peak_queued_tuples", static_cast<double>(c.peak_queued_tuples));
  v->Set("exec.tuples_shed", static_cast<double>(c.tuples_shed));
}

/// sched, exec and metrics timing of a single-engine workload. Returns the
/// traced run's wall seconds.
double MeasureEngine(const WorkloadSpec& w, const Inputs& inputs,
                     const std::string& reference, LayerValues* v,
                     LayerResult* out) {
  core::SimulationOptions options = RunOptions(w, inputs);
  options.qos.track_outputs = true;
  const exec::EngineConfig config = core::MakeEngineConfig(
      options, w.policy, inputs.plan.MinOperatorCost());
  TimedScheduler scheduler(sched::CreateScheduler(w.policy), ClockBiasNs());
  metrics::QosCollector collector(options.qos);

  core::RunResult result;
  const Clock::time_point start = Clock::now();
  double build_s = 0.0;
  double run_s = 0.0;
  {
    exec::Engine engine(&inputs.plan, &inputs.arrivals, config, &scheduler,
                        &collector);
    build_s = SecondsSince(start);
    const Clock::time_point run_start = Clock::now();
    result.counters = engine.Run();
    run_s = SecondsSince(run_start);
  }
  result.policy_name = scheduler.name();
  result.qos = collector.Snapshot();
  result.qos.shed_count = result.counters.tuples_shed;
  result.qos.shed_ratio = result.counters.ShedRatio();
  const double wall_s = SecondsSince(start);
  ++out->runs;
  const std::vector<metrics::OutputRecord> outputs =
      std::move(result.qos.outputs);
  result.qos.outputs.clear();
  CompareToReference("timed-scheduler", result, reference, &out->failures);
  SetResultMetrics(result, v);

  // Replay the emission stream into a fresh collector; the per-query class
  // lookups are hoisted so the timed loop is RecordOutput alone.
  std::vector<int> cost_class;
  std::vector<double> class_selectivity;
  for (const query::CompiledQuery& q : inputs.plan.queries()) {
    cost_class.push_back(q.spec().cost_class);
    class_selectivity.push_back(q.spec().class_selectivity);
  }
  metrics::QosCollector replay(RunOptions(w, inputs).qos);
  const Clock::time_point record_start = Clock::now();
  for (const metrics::OutputRecord& r : outputs) {
    const size_t q = static_cast<size_t>(r.query);
    replay.RecordOutput(r.query, cost_class[q], class_selectivity[q],
                        r.arrival_time, r.response, r.slowdown);
  }
  const double record_s = SecondsSince(record_start);
  const Clock::time_point snapshot_start = Clock::now();
  core::RunResult replayed = result;
  replayed.qos = replay.Snapshot();
  const double snapshot_s = SecondsSince(snapshot_start);
  replayed.qos.shed_count = result.qos.shed_count;
  replayed.qos.shed_ratio = result.qos.shed_ratio;
  CompareToReference("replayed-metrics", replayed, reference, &out->failures);

  const double pick_s = scheduler.pick().Seconds();
  const double reconcile_s = scheduler.reconcile().Seconds();
  v->Set("sched.pick_calls", static_cast<double>(scheduler.pick().calls));
  v->Set("sched.pick_s", pick_s);
  v->Set("sched.pick_ns_p50", scheduler.PickQuantileNs(0.50));
  v->Set("sched.pick_ns_p99", scheduler.PickQuantileNs(0.99));
  v->Set("sched.reconcile_calls",
         static_cast<double>(scheduler.reconcile().calls));
  v->Set("sched.reconcile_s", reconcile_s);
  v->Set("sched.share", Ratio(pick_s + reconcile_s, run_s));
  v->Set("exec.engine_build_s", build_s);
  v->Set("exec.run_s", run_s);
  v->Set("exec.self_s", run_s - pick_s - reconcile_s - record_s -
                            scheduler.InstrumentationSeconds());
  v->Set("metrics.record_calls", static_cast<double>(outputs.size()));
  v->Set("metrics.record_ns",
         Ratio(record_s * 1e9, static_cast<double>(outputs.size())));
  v->Set("metrics.record_s", record_s);
  v->Set("metrics.snapshot_s", snapshot_s);
  return wall_s;
}

/// Seconds the shard engines of a sharded run spent running, summed over
/// shards.
double ShardWallSum(const RunOutcome& run) {
  double sum = 0.0;
  for (const core::ShardRunStats& s : run.shard_stats) sum += s.wall_ms * 1e-3;
  return sum;
}

/// core timing of a sharded workload: the measured configuration, whose
/// shards share one thread, plus its kParallelThreads twin. Returns the
/// measured configuration's wall seconds.
double MeasureShards(const WorkloadSpec& w, const Inputs& inputs,
                     const std::string& reference, LayerValues* v,
                     LayerResult* out) {
  const core::SimulationOptions options = RunOptions(w, inputs);
  AQSIOS_CHECK_EQ(options.shard_threads, 1);
  const RunOutcome run = Run(w, inputs, options);
  core::SimulationOptions parallel = options;
  parallel.shard_threads = kParallelThreads;
  const RunOutcome twin = Run(w, inputs, parallel);
  out->runs += 2;
  CompareToReference("sharded", run.result, reference, &out->failures);
  CompareToReference("shard_threads=" + std::to_string(kParallelThreads),
                     twin.result, reference, &out->failures);
  SetResultMetrics(run.result, v);

  double wall_max = 0.0;
  int64_t migrations = 0;
  int64_t steals = 0;
  int64_t refused = 0;
  int64_t routed = 0;
  for (const core::ShardRunStats& s : run.shard_stats) {
    wall_max = std::max(wall_max, s.wall_ms * 1e-3);
    migrations += s.migrations;
    steals += s.steals;
    refused += s.admission_dropped;
    routed += s.arrivals;
  }
  const double wall_sum = ShardWallSum(run);
  const int threads = std::min(kParallelThreads, options.shards);
  v->Set("core.shard_wall_sum_s", wall_sum);
  v->Set("core.shard_wall_max_s", wall_max);
  v->Set("core.parallel_efficiency",
         Ratio(ShardWallSum(twin), threads * twin.wall_s));
  v->Set("core.thread_speedup", Ratio(run.wall_s, twin.wall_s));
  // On one thread the shards run back to back, so everything outside them
  // (routing, admission, barriers, migrations, the merge) is the rest.
  v->Set("core.coordination_s", run.wall_s - wall_sum);
  v->Set("core.load_imbalance", run.load_imbalance);
  v->Set("core.migrations", static_cast<double>(migrations));
  v->Set("core.steals", static_cast<double>(steals));
  v->Set("core.admission_refused", static_cast<double>(refused));
  v->Set("core.routed_arrivals", static_cast<double>(routed));
  return run.wall_s;
}

/// obs: one run with event tracers attached (one per shard when sharded).
void MeasureTracer(const WorkloadSpec& w, const Inputs& inputs,
                   const std::string& reference, double e2e_wall_s,
                   LayerValues* v, LayerResult* out) {
  core::SimulationOptions options = RunOptions(w, inputs);
  const int sinks = w.sharded() ? options.shards : 1;
  std::vector<std::unique_ptr<obs::EventTracer>> tracers;
  std::vector<obs::EventTracer*> sink_ptrs;
  for (int i = 0; i < sinks; ++i) {
    tracers.push_back(std::make_unique<obs::EventTracer>());
    sink_ptrs.push_back(tracers.back().get());
  }
  if (!w.sharded()) options.tracer = sink_ptrs.front();
  const RunOutcome run =
      Run(w, inputs, options, w.sharded() ? &sink_ptrs : nullptr);
  ++out->runs;
  CompareToReference("tracer-attached", run.result, reference,
                     &out->failures);
  int64_t kept = 0;
  int64_t dropped = 0;
  for (const auto& tracer : tracers) {
    kept += static_cast<int64_t>(tracer->size());
    dropped += tracer->dropped();
  }
  v->Set("obs.tracer_overhead_pct",
         100.0 * Ratio(run.wall_s - e2e_wall_s, e2e_wall_s));
  v->Set("obs.events_kept", static_cast<double>(kept));
  v->Set("obs.events_dropped", static_cast<double>(dropped));
}

}  // namespace

LayerResult MeasureLayers(const WorkloadSpec& w, const Inputs& inputs,
                          const std::string& reference, double e2e_wall_s) {
  LayerResult out;
  LayerValues v;
  const double traced_wall_s =
      w.sharded() ? MeasureShards(w, inputs, reference, &v, &out)
                  : MeasureEngine(w, inputs, reference, &v, &out);
  v.Set("trace_overhead_pct",
        100.0 * Ratio(traced_wall_s - e2e_wall_s, e2e_wall_s));
  // The elastic runner refuses tracers, so its obs metrics read 0.
  if (!w.options.rebalance.enabled) {
    MeasureTracer(w, inputs, reference, e2e_wall_s, &v, &out);
  }
  out.metrics = v.Metrics();
  return out;
}

}  // namespace aqsios::benchmark
