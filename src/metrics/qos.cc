#include "metrics/qos.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace aqsios::metrics {

ClassKey MakeClassKey(int cost_class, double selectivity) {
  ClassKey key;
  key.cost_class = cost_class;
  key.selectivity_decile =
      static_cast<int>(std::lround(selectivity * 10.0));
  return key;
}

double MinSlowdown(SimTime now, SimTime ideal_time, int path_charges) {
  const double ulp =
      std::nextafter(now, std::numeric_limits<double>::infinity()) - now;
  const double clock_error =
      0.5 * static_cast<double>(path_charges + 1) * ulp / ideal_time;
  return 1.0 - std::max(1e-9, clock_error);
}

std::string QosSnapshot::ToString() const {
  std::ostringstream os;
  os << "emitted=" << tuples_emitted
     << " avg_response=" << SimTimeToMillis(avg_response) << "ms"
     << " avg_slowdown=" << avg_slowdown << " max_slowdown=" << max_slowdown
     << " l2_slowdown=" << l2_slowdown << " rms_slowdown=" << rms_slowdown;
  return os.str();
}

QosCollector::QosCollector(const Options& options)
    : options_(options), slowdown_histogram_(options.slowdown_histogram) {
  if (options.timeline_bucket > 0.0) {
    timeline_.emplace(options.timeline_bucket);
  }
}

double QosSnapshot::JainFairnessIndex() const {
  if (per_query_slowdown.empty()) return 0.0;
  double sum = 0.0;
  double sum_squares = 0.0;
  int64_t n = 0;
  for (const auto& [query, stats] : per_query_slowdown) {
    if (stats.count() == 0) continue;
    const double mean = stats.Mean();
    sum += mean;
    sum_squares += mean * mean;
    ++n;
  }
  if (n == 0 || sum_squares == 0.0) return 0.0;
  return sum * sum / (static_cast<double>(n) * sum_squares);
}

void QosCollector::RecordOutput(int32_t query_id, int cost_class,
                                double selectivity, SimTime arrival_time,
                                SimTime response, double slowdown) {
  // The slowdown's lower bound depends on the clock and the query, which
  // only the emitting engine knows; it checks MinSlowdown there.
  AQSIOS_DCHECK_GE(response, 0.0);
  if (arrival_time < options_.warmup_until) return;
  response_.Add(response);
  slowdown_.Add(slowdown);
  slowdown_histogram_.Add(slowdown);
  if (options_.track_per_class) {
    if (static_cast<size_t>(query_id) >= per_class_memo_.size()) {
      per_class_memo_.resize(static_cast<size_t>(query_id) + 1, nullptr);
    }
    aqsios::RunningStats*& stats =
        per_class_memo_[static_cast<size_t>(query_id)];
    if (stats == nullptr) {
      stats = &per_class_slowdown_[MakeClassKey(cost_class, selectivity)];
    }
    stats->Add(slowdown);
  }
  if (options_.track_per_query) {
    per_query_slowdown_[query_id].Add(slowdown);
  }
  if (timeline_.has_value()) {
    timeline_->Record(arrival_time, slowdown);
  }
  if (options_.track_outputs) {
    outputs_.push_back({query_id, arrival_time, response, slowdown});
  }
}

void QosCollector::MergeFrom(const QosCollector& other,
                             const std::vector<int32_t>& query_id_map) {
  const auto remap = [&query_id_map](int32_t query) {
    if (query_id_map.empty()) return query;
    AQSIOS_CHECK_LT(static_cast<size_t>(query), query_id_map.size());
    return query_id_map[static_cast<size_t>(query)];
  };
  response_.Merge(other.response_);
  slowdown_.Merge(other.slowdown_);
  slowdown_histogram_.Merge(other.slowdown_histogram_);
  // Class keys are global (cost class, selectivity decile) — no remap.
  for (const auto& [key, stats] : other.per_class_slowdown_) {
    per_class_slowdown_[key].Merge(stats);
  }
  for (const auto& [query, stats] : other.per_query_slowdown_) {
    per_query_slowdown_[remap(query)].Merge(stats);
  }
  if (timeline_.has_value() && other.timeline_.has_value()) {
    timeline_->Merge(*other.timeline_);
  }
  outputs_.reserve(outputs_.size() + other.outputs_.size());
  for (OutputRecord record : other.outputs_) {
    record.query = remap(record.query);
    outputs_.push_back(record);
  }
}

QosSnapshot QosCollector::Snapshot() const {
  QosSnapshot snap;
  snap.tuples_emitted = response_.count();
  snap.avg_response = response_.Mean();
  snap.max_response = response_.Max();
  snap.avg_slowdown = slowdown_.Mean();
  snap.max_slowdown = slowdown_.Max();
  snap.l2_slowdown = slowdown_.L2Norm();
  snap.rms_slowdown = slowdown_.Rms();
  snap.p50_slowdown = slowdown_histogram_.Quantile(0.5);
  snap.p95_slowdown = slowdown_histogram_.Quantile(0.95);
  snap.p99_slowdown = slowdown_histogram_.Quantile(0.99);
  snap.p999_slowdown = slowdown_histogram_.Quantile(0.999);
  snap.per_class_slowdown = per_class_slowdown_;
  snap.per_query_slowdown = per_query_slowdown_;
  if (timeline_.has_value()) {
    snap.timeline_bucket = timeline_->bucket_width();
    snap.slowdown_timeline_mean = timeline_->MeanSeries();
    snap.slowdown_timeline_max = timeline_->MaxSeries();
  }
  snap.outputs = outputs_;
  return snap;
}

}  // namespace aqsios::metrics
