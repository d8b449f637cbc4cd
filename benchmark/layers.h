// Per-layer measurement, taken from outside the library.
//
// The benchmark never instruments src/: it times calls into each module's
// public functions. The sched layer is timed through a decorator that
// implements every sched::Scheduler virtual and forwards to the real policy,
// driving exec::Engine exactly as core::SimulatePlan does; the metrics layer
// by replaying the captured emission stream into a fresh
// metrics::QosCollector; the obs layer by one run with an obs::EventTracer
// attached; and the core layer from ShardRunStats plus a single-threaded
// twin run. Every one of these runs must reproduce the end-to-end result
// byte for byte.

#ifndef AQSIOS_BENCHMARK_LAYERS_H_
#define AQSIOS_BENCHMARK_LAYERS_H_

#include <string>
#include <vector>

#include "workloads.h"

namespace aqsios::benchmark {

/// Median of a non-empty sample (mean of the middle two for even sizes).
double Median(std::vector<double> values);

struct Metric {
  std::string name;
  std::string unit;
  /// What `values` ranges over: "repetition", "input" or "run" (one value).
  std::string over;
  std::vector<double> values;
  /// Report the highest value instead of the median.
  bool report_max = false;

  double Median() const;
  double Min() const;
  double Max() const;
  /// The reported value.
  double Value() const { return report_max ? Max() : Median(); }
};

struct LayerResult {
  /// Every per-layer metric, in a fixed order; a layer that does not apply
  /// to the workload reads 0.
  std::vector<Metric> metrics;
  /// Simulation runs performed.
  int runs = 0;
  /// One message per failed check.
  std::vector<std::string> failures;
};

/// Measures every layer of `w` on `inputs`. `reference` is the end-to-end
/// run's core::RunResultToJson, which every layered run must reproduce;
/// `e2e_wall_s` is the end-to-end median run wall, the base of the overhead
/// percentages.
LayerResult MeasureLayers(const WorkloadSpec& w, const Inputs& inputs,
                          const std::string& reference, double e2e_wall_s);

}  // namespace aqsios::benchmark

#endif  // AQSIOS_BENCHMARK_LAYERS_H_
