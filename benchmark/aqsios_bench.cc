// aqsios_bench: the repository benchmark.
//
//   aqsios_bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//                [--scale <x>] [--out <report.json>]
//
// Draws kInputs inputs of the named workload from --seed and simulates them
// in turn, each repetition regenerating its input, until --seconds have
// passed (at least kMinReps repetitions). --trace 0 reports the end-to-end
// metrics: the fastest repetition's throughput, the median set-up time, the
// run's peak memory, and the median over inputs of the virtual-time QoS.
// --trace 1 additionally measures every layer (layers.h) and reports those
// instead. Every run's result is checked (repetitions byte-identical,
// accounting identities, layered runs equal to the end-to-end run); any
// failure makes the exit code 1. Output: one "<workload> <metric> <value>
// <unit>" line per metric, a result_digest line, and as the last line one
// JSON object {"correct", "attempted", "failed", "metrics"}. --out also
// writes the full aqsios-benchmark/1 report: host header, per-repetition
// and per-input values, median/min/max.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/flags.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "core/report.h"
#include "layers.h"
#include "workloads.h"

namespace aqsios::benchmark {
namespace {

/// Inputs a run cycles through, all drawn from --seed: repetition r runs
/// input r % kInputs. The virtual-time QoS of a single input moved by up to
/// 12% between seeds; their median over the inputs moves by much less.
constexpr int kInputs = 5;
/// Every input runs at least twice, so every result is checked against a
/// repetition of itself.
constexpr int kMinReps = 2 * kInputs;

/// Seed of input `index`; input 0 is --seed itself.
uint64_t InputSeed(int64_t seed, int index) {
  const uint64_t base = static_cast<uint64_t>(seed);
  return index == 0 ? base : MixKeys(base, static_cast<uint64_t>(index));
}

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

/// FNV-1a 64 of the serialized result, in hex.
std::string Digest(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, hash);
  return buffer;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void WriteHost(JsonWriter& json) {
  json.BeginObject();
  json.Key("cpu_model");
  json.String(CpuModel());
  json.Key("nproc");
  json.Number(static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.Key("compiler");
  json.String(AQSIOS_BENCH_COMPILER);
  json.Key("flags");
  json.String(AQSIOS_BENCH_FLAGS);
  json.Key("build_type");
  json.String(AQSIOS_BENCH_BUILD_TYPE);
  json.EndObject();
}

void WriteMetrics(JsonWriter& json, const std::vector<Metric>& metrics) {
  json.BeginObject();
  for (const Metric& m : metrics) {
    json.Key(m.name);
    json.BeginObject();
    json.Key("unit");
    json.String(m.unit);
    json.Key("value");
    json.Number(m.Value());
    json.Key("over");
    json.String(m.over);
    json.Key("values");
    json.BeginArray();
    for (double value : m.values) json.Number(value);
    json.EndArray();
    json.Key("median");
    json.Number(m.Median());
    json.Key("min");
    json.Number(m.Min());
    json.Key("max");
    json.Number(m.Max());
    json.EndObject();
  }
  json.EndObject();
}

struct Report {
  std::string workload;
  int64_t seed = 0;
  double scale = 1.0;
  double seconds = 0.0;
  int trace = 0;
  int reps = 0;
  int attempted = 0;
  std::vector<std::string> failures;
  std::string digest;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

std::string ReportJson(const Report& r) {
  JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("aqsios-benchmark/1");
  json.Key("host");
  WriteHost(json);
  json.Key("workload");
  json.String(r.workload);
  json.Key("seed");
  json.Number(r.seed);
  json.Key("scale");
  json.Number(r.scale);
  json.Key("seconds");
  json.Number(r.seconds);
  json.Key("trace");
  json.Number(static_cast<int64_t>(r.trace));
  json.Key("reps");
  json.Number(static_cast<int64_t>(r.reps));
  json.Key("correct");
  json.Bool(r.failures.empty());
  json.Key("failures");
  json.BeginArray();
  for (const std::string& f : r.failures) json.String(f);
  json.EndArray();
  json.Key("result_digest");
  json.String(r.digest);
  json.Key("end_to_end");
  WriteMetrics(json, r.end_to_end);
  if (r.trace == 1) {
    json.Key("per_layer");
    WriteMetrics(json, r.per_layer);
  }
  json.EndObject();
  return json.str();
}

/// The last stdout line: correctness, run counts and the mode's metrics.
std::string ResultLine(const Report& r) {
  const std::vector<Metric>& metrics =
      r.trace == 1 ? r.per_layer : r.end_to_end;
  JsonWriter json;
  json.BeginObject();
  json.Key("correct");
  json.Bool(r.failures.empty());
  json.Key("attempted");
  json.Number(static_cast<int64_t>(r.attempted));
  json.Key("failed");
  json.Number(static_cast<int64_t>(
      std::min<size_t>(r.failures.size(), static_cast<size_t>(r.attempted))));
  json.Key("metrics");
  json.BeginObject();
  for (const Metric& m : metrics) {
    json.Key(m.name);
    json.BeginObject();
    json.Key("value");
    json.Number(m.Value());
    json.Key("unit");
    json.String(m.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

int Main(int argc, char** argv) {
  std::string workload;
  int64_t seed = 42;
  double seconds = 10.0;
  int trace = 0;
  double scale = 1.0;
  std::string out;
  FlagSet flags("aqsios_bench");
  flags.AddString("workload", &workload,
                  "q500-bsd | kernel-train | join-window | skew-elastic | "
                  "overload-admit");
  flags.AddInt("seed", &seed, "workload seed");
  flags.AddDouble("seconds", &seconds,
                  "measure for at least this long (at least 2 repetitions of "
                  "each input)");
  flags.AddInt("trace", &trace,
               "0 = end-to-end metrics, 1 = also measure every layer and "
               "report the per-layer metrics");
  flags.AddDouble("scale", &scale,
                  "arrival-count multiplier (1 = the benchmark's size; "
                  "smaller values are for smoke tests only)");
  flags.AddString("out", &out, "also write the aqsios-benchmark/1 report here");
  const Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    if (flags.help_requested()) return 0;
    std::cerr << "aqsios_bench: " << status << "\n" << flags.Usage();
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || (trace != 0 && trace != 1) || !(seconds >= 0.0) ||
      !(scale > 0.0) || seed < 0) {
    std::cerr << "aqsios_bench: need a known --workload, --trace 0|1, "
                 "--seconds >= 0, --scale > 0 and --seed >= 0\n"
              << flags.Usage();
    return 2;
  }

  Report report;
  report.workload = workload;
  report.seed = seed;
  report.scale = scale;
  report.seconds = seconds;
  report.trace = trace;

  // Throughput is the fastest repetition's. Other tenants of a shared host
  // only ever slow a repetition down, and their load shifts over seconds:
  // the median repetition of one 10 s run differed from another run's by up
  // to 25%, the fastest by ~5%.
  Metric arrivals_per_s{"arrivals_per_s", "1/s", "repetition", {},
                        /*report_max=*/true};
  Metric setup_s{"setup_s", "s", "repetition", {}};
  Metric avg_slowdown{"avg_slowdown", "ratio", "input", {}};
  Metric p50_slowdown{"p50_slowdown", "ratio", "input", {}};
  Metric p99_slowdown{"p99_slowdown", "ratio", "input", {}};
  Metric p999_slowdown{"p999_slowdown", "ratio", "input", {}};
  Metric delivered_frac{"delivered_frac", "ratio", "input", {}};
  std::vector<double> wall_s;
  std::vector<std::string> reference(kInputs);
  const auto loop_start = std::chrono::steady_clock::now();
  for (int rep = 0;; ++rep) {
    const int input = rep % kInputs;
    const auto setup_start = std::chrono::steady_clock::now();
    const Inputs inputs = spec->generate(InputSeed(seed, input), scale);
    setup_s.values.push_back(SecondsSince(setup_start));
    const RunOutcome run = Run(*spec, inputs, RunOptions(*spec, inputs));
    ++report.attempted;
    wall_s.push_back(run.wall_s);
    arrivals_per_s.values.push_back(
        static_cast<double>(inputs.arrivals.size()) / run.wall_s);
    const std::string json = core::RunResultToJson(run.result);
    if (rep < kInputs) {
      reference[static_cast<size_t>(input)] = json;
      const metrics::QosSnapshot& qos = run.result.qos;
      avg_slowdown.values.push_back(qos.avg_slowdown);
      p50_slowdown.values.push_back(qos.p50_slowdown);
      p99_slowdown.values.push_back(qos.p99_slowdown);
      p999_slowdown.values.push_back(qos.p999_slowdown);
      delivered_frac.values.push_back(DeliveredFraction(*spec, inputs, run));
      const std::string error = CheckIdentity(*spec, inputs, run);
      if (!error.empty()) report.failures.push_back(error);
      if (qos.tuples_emitted == 0) {
        report.failures.push_back("input " + std::to_string(input) +
                                  " emitted no tuples");
      }
    } else if (json != reference[static_cast<size_t>(input)]) {
      report.failures.push_back("repetition " + std::to_string(rep) +
                                " differs from the first run of input " +
                                std::to_string(input));
    }
    if (rep + 1 >= kMinReps && SecondsSince(loop_start) >= seconds) break;
  }
  report.reps = static_cast<int>(wall_s.size());
  std::string all_results;
  for (const std::string& json : reference) all_results += json;
  report.digest = Digest(all_results);
  report.end_to_end = {
      arrivals_per_s,
      setup_s,
      {"peak_rss_mb", "MiB", "run",
       {static_cast<double>(core::CurrentPeakRssKb()) / 1024.0}},
      avg_slowdown,
      p50_slowdown,
      p99_slowdown,
      p999_slowdown,
      delivered_frac,
  };

  if (trace == 1) {
    const Inputs inputs = spec->generate(InputSeed(seed, 0), scale);
    LayerResult layers =
        MeasureLayers(*spec, inputs, reference[0], Median(wall_s));
    report.attempted += layers.runs;
    report.per_layer = std::move(layers.metrics);
    report.failures.insert(report.failures.end(), layers.failures.begin(),
                           layers.failures.end());
  }

  for (const std::string& f : report.failures) {
    std::cerr << "aqsios_bench: " << workload << ": check failed: " << f
              << "\n";
  }
  if (!out.empty()) {
    std::ofstream file(out);
    file << ReportJson(report) << "\n";
    if (!file) {
      std::cerr << "aqsios_bench: cannot write " << out << "\n";
      return 1;
    }
  }
  for (const Metric& m : trace == 1 ? report.per_layer : report.end_to_end) {
    std::cout << workload << " " << m.name << " " << FormatNumber(m.Value())
              << " " << m.unit << "\n";
  }
  std::cout << workload << " result_digest " << report.digest << " fnv1a64\n";
  std::cout << ResultLine(report) << std::endl;
  return report.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace aqsios::benchmark

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // Keep freed memory in the process, so a repetition reuses the pages the
  // previous one touched instead of faulting fresh ones in: page faults in a
  // virtual machine made the median set-up time vary 10% between runs,
  // against 4% without them.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 1 << 25);
  mallopt(M_TOP_PAD, 1 << 26);
#endif
  return aqsios::benchmark::Main(argc, argv);
}
