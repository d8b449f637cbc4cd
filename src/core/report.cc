#include "core/report.h"

#include "obs/registry.h"

namespace aqsios::core {

namespace {

void WriteQos(JsonWriter& json, const metrics::QosSnapshot& qos) {
  json.BeginObject();
  json.Key("tuples_emitted");
  json.Number(qos.tuples_emitted);
  if (qos.shed_count > 0) {
    // Shedding engaged; runs without shedding serialize byte-identically to
    // reports written before load shedding existed.
    json.Key("shed_count");
    json.Number(qos.shed_count);
    json.Key("shed_ratio");
    json.Number(qos.shed_ratio);
  }
  json.Key("avg_response_ms");
  json.Number(SimTimeToMillis(qos.avg_response));
  json.Key("max_response_ms");
  json.Number(SimTimeToMillis(qos.max_response));
  json.Key("avg_slowdown");
  json.Number(qos.avg_slowdown);
  json.Key("max_slowdown");
  json.Number(qos.max_slowdown);
  json.Key("l2_slowdown");
  json.Number(qos.l2_slowdown);
  json.Key("rms_slowdown");
  json.Number(qos.rms_slowdown);
  json.Key("p50_slowdown");
  json.Number(qos.p50_slowdown);
  json.Key("p95_slowdown");
  json.Number(qos.p95_slowdown);
  json.Key("p99_slowdown");
  json.Number(qos.p99_slowdown);
  json.Key("p999_slowdown");
  json.Number(qos.p999_slowdown);
  if (!qos.per_query_slowdown.empty()) {
    json.Key("jain_fairness");
    json.Number(qos.JainFairnessIndex());
  }
  if (!qos.per_class_slowdown.empty()) {
    json.Key("per_class_avg_slowdown");
    json.BeginArray();
    for (const auto& [key, stats] : qos.per_class_slowdown) {
      json.BeginObject();
      json.Key("cost_class");
      json.Number(static_cast<int64_t>(key.cost_class));
      json.Key("selectivity_decile");
      json.Number(static_cast<int64_t>(key.selectivity_decile));
      json.Key("count");
      json.Number(stats.count());
      json.Key("mean");
      json.Number(stats.Mean());
      json.EndObject();
    }
    json.EndArray();
  }
  json.EndObject();
}

void WriteCounters(JsonWriter& json, const exec::RunCounters& counters) {
  json.BeginObject();
  json.Key("scheduling_points");
  json.Number(counters.scheduling_points);
  json.Key("unit_executions");
  json.Number(counters.unit_executions);
  json.Key("operator_invocations");
  json.Number(counters.operator_invocations);
  json.Key("tuples_emitted");
  json.Number(counters.tuples_emitted);
  json.Key("tuples_filtered");
  json.Number(counters.tuples_filtered);
  json.Key("composites_generated");
  json.Number(counters.composites_generated);
  json.Key("overhead_operations");
  json.Number(counters.overhead_operations);
  json.Key("adaptation_ticks");
  json.Number(counters.adaptation_ticks);
  json.Key("busy_seconds");
  json.Number(counters.busy_time);
  json.Key("overhead_seconds");
  json.Number(counters.overhead_time);
  json.Key("end_seconds");
  json.Number(counters.end_time);
  json.Key("measured_utilization");
  json.Number(counters.MeasuredUtilization());
  json.Key("peak_queued_tuples");
  json.Number(counters.peak_queued_tuples);
  json.Key("avg_queued_tuples");
  json.Number(counters.avg_queued_tuples);
  json.Key("queue_length");
  obs::WriteSummaryJson(json, counters.queue_length);
  json.Key("exec_busy_seconds");
  obs::WriteSummaryJson(json, counters.exec_busy);
  if (counters.train_dispatches > 0) {
    // Batched-dispatch shape; only present when the engine ran its tuple
    // train path, so per-tuple runs (batch_size 1) serialize byte-identically
    // to reports written before batching existed.
    json.Key("trains");
    json.BeginObject();
    json.Key("dispatches");
    json.Number(counters.train_dispatches);
    json.Key("tuples");
    json.Number(counters.train_tuples);
    json.Key("max_tuples");
    json.Number(counters.max_train_tuples);
    json.Key("mean_tuples");
    json.Number(static_cast<double>(counters.train_tuples) /
                static_cast<double>(counters.train_dispatches));
    json.EndObject();
  }
  if (counters.tuples_offered > 0) {
    // Load shedding enabled (even if nothing was shed); disabled runs keep
    // serializing byte-identically to pre-shedding reports.
    json.Key("shed");
    json.BeginObject();
    json.Key("offered");
    json.Number(counters.tuples_offered);
    json.Key("shed");
    json.Number(counters.tuples_shed);
    json.Key("ratio");
    json.Number(counters.ShedRatio());
    json.EndObject();
  }
  if (counters.adaptation_ticks > 0) {
    // Online calibration enabled; disabled runs keep serializing
    // byte-identically to pre-calibration reports.
    json.Key("calibration");
    json.BeginObject();
    json.Key("epochs");
    json.Number(counters.adaptation_ticks);
    json.Key("updates");
    json.Number(counters.calibration_updates);
    json.Key("rekeys");
    json.Number(counters.calibration_rekeys);
    json.Key("cost_drift");
    json.Number(counters.calibration_cost_drift);
    json.Key("selectivity_drift");
    json.Number(counters.calibration_selectivity_drift);
    json.EndObject();
  }
  json.EndObject();
}

/// The per-policy decision shape: how many scheduling points the run took
/// and what an average decision cost/examined (Figures 13–14 context).
void WriteDecisions(JsonWriter& json, const exec::RunCounters& counters) {
  const double points = static_cast<double>(counters.scheduling_points);
  json.BeginObject();
  json.Key("scheduling_points");
  json.Number(counters.scheduling_points);
  json.Key("candidates_total");
  json.Number(counters.decision_candidates);
  json.Key("mean_candidates");
  json.Number(points > 0.0
                  ? static_cast<double>(counters.decision_candidates) / points
                  : 0.0);
  json.Key("mean_priority_computations");
  json.Number(
      points > 0.0
          ? static_cast<double>(counters.priority_computations) / points
          : 0.0);
  json.EndObject();
}

void WriteAttribution(JsonWriter& json,
                      const obs::StageAttribution& attribution) {
  json.BeginObject();
  json.Key("sample_every");
  json.Number(attribution.sample_every);
  json.Key("samples");
  json.Number(attribution.samples());
  json.Key("mean_response_ms");
  json.Number(SimTimeToMillis(attribution.response.Mean()));
  json.Key("mean_queue_wait_ms");
  json.Number(SimTimeToMillis(attribution.queue_wait.Mean()));
  json.Key("mean_sched_overhead_ms");
  json.Number(SimTimeToMillis(attribution.sched_overhead.Mean()));
  json.Key("mean_processing_ms");
  json.Number(SimTimeToMillis(attribution.processing.Mean()));
  json.Key("dependency_samples");
  json.Number(attribution.dependency_delay.count());
  json.Key("mean_dependency_delay_ms");
  json.Number(SimTimeToMillis(attribution.dependency_delay.Mean()));
  json.EndObject();
}

}  // namespace

std::string RunResultToJson(const RunResult& result) {
  JsonWriter json;
  json.BeginObject();
  json.Key("policy");
  json.String(result.policy_name);
  json.Key("qos");
  WriteQos(json, result.qos);
  json.Key("counters");
  WriteCounters(json, result.counters);
  json.Key("decisions");
  WriteDecisions(json, result.counters);
  if (result.counters.attribution.samples() > 0) {
    json.Key("attribution");
    WriteAttribution(json, result.counters.attribution);
  }
  json.EndObject();
  return json.str();
}

obs::HealthVerdict RestateHealth(const RunResult& result,
                                 const obs::WatchdogConfig& config,
                                 int64_t arrivals_routed,
                                 int64_t admission_rejected) {
  obs::RunEndStats stats;
  stats.peak_queued_tuples = result.counters.peak_queued_tuples;
  stats.tuples_offered = result.counters.tuples_offered;
  stats.tuples_shed = result.counters.tuples_shed;
  stats.arrivals_routed = arrivals_routed;
  stats.admission_rejected = admission_rejected;
  stats.p95_slowdown = result.qos.p95_slowdown;
  stats.p99_slowdown = result.qos.p99_slowdown;
  return obs::FinalizeHealth(config, stats);
}

void WriteHealthJson(JsonWriter& json, const obs::HealthVerdict& verdict) {
  json.BeginObject();
  json.Key("healthy");
  json.Bool(verdict.healthy);
  json.Key("verdict");
  json.String(verdict.ToString());
  json.Key("queue_divergence");
  json.Bool(verdict.queue_divergence);
  json.Key("shed_spike");
  json.Bool(verdict.shed_spike);
  json.Key("admission_spike");
  json.Bool(verdict.admission_spike);
  json.Key("slo_breach");
  json.Bool(verdict.slo_breach);
  json.EndObject();
}

std::string RunResultToJsonWithHealth(const RunResult& result,
                                      const obs::HealthVerdict& verdict) {
  // Re-render the standard object and splice the health block before the
  // closing brace: the base report stays byte-identical up to that point.
  std::string base = RunResultToJson(result);
  JsonWriter health;
  WriteHealthJson(health, verdict);
  base.pop_back();  // trailing '}'
  base += ",\"health\":";
  base += health.str();
  base += "}";
  return base;
}

void WriteSweepCells(JsonWriter& json, const std::vector<SweepCell>& cells) {
  json.BeginArray();
  for (const SweepCell& cell : cells) {
    json.BeginObject();
    json.Key("utilization");
    json.Number(cell.utilization);
    json.Key("policy");
    json.String(cell.policy);
    json.Key("wall_ms");
    json.Number(cell.wall_ms);
    json.Key("max_rss_kb");
    json.Number(cell.max_rss_kb);
    if (!cell.shard_stats.empty()) {
      // Sharded cells only: unsharded sweep JSON stays byte-identical.
      json.Key("load_imbalance");
      json.Number(cell.load_imbalance);
      json.Key("shards");
      json.BeginArray();
      for (const ShardRunStats& shard : cell.shard_stats) {
        json.BeginObject();
        json.Key("shard");
        json.Number(static_cast<int64_t>(shard.shard));
        json.Key("num_queries");
        json.Number(static_cast<int64_t>(shard.num_queries));
        json.Key("arrivals");
        json.Number(shard.arrivals);
        json.Key("wall_ms");
        json.Number(shard.wall_ms);
        json.Key("max_rss_kb");
        json.Number(shard.max_rss_kb);
        json.Key("busy_seconds");
        json.Number(shard.busy_seconds);
        json.Key("end_seconds");
        json.Number(shard.end_seconds);
        if (shard.admission_dropped > 0) {
          // Admission control engaged; runs without it keep serializing
          // byte-identically to pre-admission sweep reports.
          json.Key("admission_dropped");
          json.Number(shard.admission_dropped);
        }
        if (shard.migrations > 0) {
          // Elastic rebalancing engaged; static runs keep serializing
          // byte-identically to pre-elastic sweep reports.
          json.Key("migrations");
          json.Number(shard.migrations);
        }
        if (shard.steals > 0) {
          json.Key("steals");
          json.Number(shard.steals);
        }
        json.EndObject();
      }
      json.EndArray();
    }
    json.Key("qos");
    WriteQos(json, cell.result.qos);
    json.Key("counters");
    WriteCounters(json, cell.result.counters);
    json.Key("decisions");
    WriteDecisions(json, cell.result.counters);
    if (cell.result.counters.attribution.samples() > 0) {
      json.Key("attribution");
      WriteAttribution(json, cell.result.counters.attribution);
    }
    json.EndObject();
  }
  json.EndArray();
}

std::string SweepToJson(const std::vector<SweepCell>& cells) {
  JsonWriter json;
  WriteSweepCells(json, cells);
  return json.str();
}

}  // namespace aqsios::core
