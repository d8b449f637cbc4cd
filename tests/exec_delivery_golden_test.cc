// Golden digests of arrival delivery: the FNV-1a 64 of core::RunResultToJson
// for a matrix of policies × shedding × plan shapes × train sizes, plus
// operator-level, elastic-rebalance, work-stealing and shed-sharded runs.
// The matrix digests were recorded from the engine that copied every arrival
// into every leaf queue, and the drift and telemetry cells from the engine
// that still had a separate per-tuple dispatcher; any delivery or dispatch
// representation must reproduce them byte for byte. The calibration cells
// were re-recorded when the calibrator became the only statistics estimator
// (T rescaled by busy over plan busy, epochs traced).
// Traced cells additionally pin the per-kind event counts and a digest of
// the whole event stream (kinds, clocks, payloads, in recording order), and
// must report the untraced digest (an attached tracer is invisible).
//
// A cell missing from Golden() fails and prints its digest; to re-record after
// an intended result change, run the binary and copy the printed lines.

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dsms.h"
#include "core/report.h"
#include "core/sharded_dsms.h"
#include "exec/unit_builder.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "query/workload.h"
#include "sched/policy.h"

namespace aqsios {
namespace {

uint64_t Fnv1a(const void* data, size_t n,
               uint64_t h = 0xcbf29ce484222325ull) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string Digest(const core::RunResult& result) {
  const std::string json = core::RunResultToJson(result);
  return Hex(Fnv1a(json.data(), json.size()));
}

// Field-wise, so struct padding never enters the hash.
std::string EventStreamDigest(const std::vector<obs::TraceEvent>& events) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const obs::TraceEvent& e : events) {
    const uint8_t kind = static_cast<uint8_t>(e.kind);
    h = Fnv1a(&kind, sizeof(kind), h);
    h = Fnv1a(&e.time, sizeof(e.time), h);
    h = Fnv1a(&e.duration, sizeof(e.duration), h);
    h = Fnv1a(&e.unit, sizeof(e.unit), h);
    h = Fnv1a(&e.query, sizeof(e.query), h);
    h = Fnv1a(&e.a, sizeof(e.a), h);
    h = Fnv1a(&e.b, sizeof(e.b), h);
  }
  return Hex(h);
}

// --- The matrix --------------------------------------------------------------

enum class Shape { kSingle, kJoin2, kJoin3, kShared };
enum class Shed { kNone, kHalf, kFull };

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kSingle: return "single";
    case Shape::kJoin2: return "join2";
    case Shape::kJoin3: return "join3";
    case Shape::kShared: return "shared";
  }
  return "?";
}

const char* ShedName(Shed s) {
  switch (s) {
    case Shed::kNone: return "noshed";
    case Shed::kHalf: return "shed50";
    case Shed::kFull: return "shed100";
  }
  return "?";
}

struct PolicyCase {
  const char* name;
  sched::PolicyKind kind;
};

constexpr PolicyCase kPolicies[] = {
    {"fcfs", sched::PolicyKind::kFcfs},
    {"rr", sched::PolicyKind::kRoundRobin},
    {"hnr", sched::PolicyKind::kHnr},
    {"lsf", sched::PolicyKind::kLsf},
    {"bsd", sched::PolicyKind::kBsd},
    {"cbsd", sched::PolicyKind::kBsdClustered},
    {"tlrr", sched::PolicyKind::kTwoLevelRr},
    {"lpnorm", sched::PolicyKind::kLpNorm},
    {"qosgraph", sched::PolicyKind::kQosGraph},
};

const query::Workload& WorkloadFor(Shape shape) {
  static const std::map<Shape, query::Workload> all = [] {
    std::map<Shape, query::Workload> m;
    for (Shape s : {Shape::kSingle, Shape::kJoin2, Shape::kJoin3,
                    Shape::kShared}) {
      query::WorkloadConfig config;
      config.seed = 7;
      config.num_queries = 12;
      config.num_arrivals = 1500;
      // Over capacity, so the shed cap binds and queues back up into
      // multi-tuple trains.
      config.utilization = 1.4;
      if (s == Shape::kJoin2 || s == Shape::kJoin3) {
        config.multi_stream = true;
        config.join_streams = s == Shape::kJoin2 ? 2 : 3;
        config.num_arrivals = 900;
        config.window_min_seconds = 0.05;
        config.window_max_seconds = 0.2;
      }
      if (s == Shape::kShared) config.sharing_group_size = 4;
      m.emplace(s, query::GenerateWorkload(config));
    }
    return m;
  }();
  return all.at(shape);
}

core::SimulationOptions OptionsFor(Shed shed, int batch) {
  core::SimulationOptions options;
  options.batch_size = batch;
  if (shed != Shed::kNone) {
    options.shed.enabled = true;
    options.shed.shed_fraction = shed == Shed::kHalf ? 0.5 : 1.0;
    // An odd cap over 12 leaves: the cap is crossed inside one arrival's
    // leaf loop, so that delivery sheds only its tail positions.
    options.shed.queue_cap = 41;
  }
  return options;
}

/// The recorded digests (see the file comment). The API accepts every
/// combination of the matrix, so no cell is skipped.
const std::map<std::string, std::string>& Golden() {
  static const std::map<std::string, std::string> golden = {
#include "exec_delivery_golden.inc"
  };
  return golden;
}

void ExpectGolden(const std::string& cell, const std::string& digest) {
  const auto it = Golden().find(cell);
  if (it == Golden().end()) {
    ADD_FAILURE() << "no golden digest for cell " << cell;
    std::printf("    {\"%s\", \"%s\"},\n", cell.c_str(), digest.c_str());
    return;
  }
  EXPECT_EQ(digest, it->second) << "cell " << cell;
  if (digest != it->second) {
    std::printf("    {\"%s\", \"%s\"},\n", cell.c_str(), digest.c_str());
  }
}

/// Whether the cell is traced as well: every cell but the three-way joins'
/// trains, which keeps the matrix to about two seconds.
bool Traced(Shape shape, int batch) {
  return shape != Shape::kJoin3 || batch == 1;
}

struct Cell {
  int policy;
  Shed shed;
  Shape shape;
  int batch;
};

std::string CellName(const Cell& c) {
  return std::string(kPolicies[c.policy].name) + "/" + ShedName(c.shed) +
         "/" + ShapeName(c.shape) + "/b" + std::to_string(c.batch);
}

void PrintTo(const Cell& c, std::ostream* os) { *os << CellName(c); }

std::vector<Cell> AllCells() {
  std::vector<Cell> cells;
  for (int p = 0; p < static_cast<int>(std::size(kPolicies)); ++p) {
    for (Shed shed : {Shed::kNone, Shed::kHalf, Shed::kFull}) {
      for (Shape shape : {Shape::kSingle, Shape::kJoin2, Shape::kJoin3,
                          Shape::kShared}) {
        for (int batch : {1, 8}) {
          cells.push_back(Cell{p, shed, shape, batch});
        }
      }
    }
  }
  return cells;
}

class DeliveryGoldenTest : public ::testing::TestWithParam<Cell> {};

/// Pins the digest of `options`' run under `name`; when `traced`, also pins
/// that an attached tracer leaves the digest alone, the per-kind event counts
/// and the event-stream digest.
void ExpectGoldenRun(const std::string& name, const query::Workload& workload,
                     const sched::PolicyConfig& policy,
                     core::SimulationOptions options, bool traced) {
  const std::string digest =
      Digest(core::Simulate(workload, policy, options));
  ExpectGolden(name, digest);

  if (!traced) return;
  // One ring for every traced cell: allocating and zeroing 2^20 events per
  // cell would dominate the matrix's run time.
  static obs::EventTracer tracer(size_t{1} << 20);
  tracer.Clear();
  options.tracer = &tracer;
  const std::string traced_digest =
      Digest(core::Simulate(workload, policy, options));
  EXPECT_EQ(traced_digest, digest) << "an attached tracer changed " << name;
  ASSERT_EQ(tracer.dropped(), 0) << "tracer too small for " << name;
  std::string counts;
  for (int k = 0; k <= static_cast<int>(obs::EventKind::kShed); ++k) {
    if (k > 0) counts += ",";
    counts += std::to_string(tracer.CountOf(static_cast<obs::EventKind>(k)));
  }
  ExpectGolden(name + "/trace-counts", counts);
  ExpectGolden(name + "/trace-stream", EventStreamDigest(tracer.Events()));
}

TEST_P(DeliveryGoldenTest, DigestMatches) {
  const Cell& cell = GetParam();
  ExpectGoldenRun(CellName(cell), WorkloadFor(cell.shape),
                  sched::PolicyConfig::Of(kPolicies[cell.policy].kind),
                  OptionsFor(cell.shed, cell.batch),
                  Traced(cell.shape, cell.batch));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DeliveryGoldenTest, ::testing::ValuesIn(AllCells()),
    [](const ::testing::TestParamInfo<Cell>& info) {
      std::string name = CellName(info.param);
      for (char& ch : name) {
        if (ch == '/') ch = '_';
      }
      return name;
    });

TEST(DeliveryGoldenExtraTest, SharedShapeHasPdtRemainders) {
  // The shared cells only exercise remainder queues if PDT excludes some
  // members; pin that the workload really builds kRemainder units.
  const query::Workload& workload = WorkloadFor(Shape::kShared);
  ASSERT_FALSE(workload.plan.sharing_groups().empty());
  exec::UnitBuilderOptions builder;
  const exec::BuiltUnits built = exec::BuildUnits(workload.plan, builder);
  int remainders = 0;
  for (const sched::Unit& unit : built.units) {
    if (unit.kind == sched::UnitKind::kRemainder) ++remainders;
  }
  EXPECT_GT(remainders, 0);
}

TEST(DeliveryGoldenExtraTest, OperatorLevel) {
  for (const PolicyCase& p : kPolicies) {
    for (Shed shed : {Shed::kNone, Shed::kHalf}) {
      for (int batch : {1, 8}) {
        core::SimulationOptions options = OptionsFor(shed, batch);
        options.level = exec::SchedulingLevel::kOperatorLevel;
        const std::string name = std::string("oplevel/") + p.name + "/" +
                                 ShedName(shed) + "/b" + std::to_string(batch);
        ExpectGolden(name,
                     Digest(core::Simulate(WorkloadFor(Shape::kSingle),
                                           sched::PolicyConfig::Of(p.kind),
                                           options)));
      }
    }
  }
}

core::SimulationOptions ElasticOptions() {
  core::SimulationOptions options;
  options.shards = 4;
  options.shard_threads = 1;
  options.qos.track_per_query = true;
  options.rebalance.enabled = true;
  options.rebalance.imbalance_high = 1.02;
  options.rebalance.imbalance_low = 1.01;
  options.rebalance.max_migrations_per_epoch = 4;
  return options;
}

int64_t Sum(const core::ShardedRunResult& run,
            int64_t core::ShardRunStats::*f) {
  int64_t total = 0;
  for (const core::ShardRunStats& stats : run.shard_stats) total += stats.*f;
  return total;
}

TEST(DeliveryGoldenExtraTest, ElasticRebalance) {
  for (Shape shape : {Shape::kSingle, Shape::kShared}) {
    for (int batch : {1, 8}) {
      core::SimulationOptions options = ElasticOptions();
      options.batch_size = batch;
      const core::ShardedRunResult run = core::SimulateSharded(
          WorkloadFor(shape), sched::PolicyConfig::Of(sched::PolicyKind::kBsd),
          options);
      EXPECT_GT(Sum(run, &core::ShardRunStats::migrations), 0);
      ExpectGolden(std::string("elastic/") + ShapeName(shape) + "/b" +
                       std::to_string(batch),
                   Digest(run.result));
    }
  }
}

TEST(DeliveryGoldenExtraTest, ElasticSteal) {
  for (sched::PolicyKind kind :
       {sched::PolicyKind::kHnr, sched::PolicyKind::kFcfs}) {
    for (int batch : {1, 8}) {
      core::SimulationOptions options = ElasticOptions();
      options.batch_size = batch;
      options.rebalance.steal = true;
      options.rebalance.steal_min_backlog = 1;
      options.rebalance.steal_max_tuples = 8;
      const core::ShardedRunResult run = core::SimulateSharded(
          WorkloadFor(Shape::kSingle), sched::PolicyConfig::Of(kind), options);
      EXPECT_GT(Sum(run, &core::ShardRunStats::steals), 0);
      ExpectGolden(std::string("steal/") +
                       (kind == sched::PolicyKind::kHnr ? "hnr" : "fcfs") +
                       "/b" + std::to_string(batch),
                   Digest(run.result));
    }
  }
}

TEST(DeliveryGoldenExtraTest, ShardedShedWithAdmission) {
  core::SimulationOptions options = OptionsFor(Shed::kFull, 1);
  options.shards = 2;
  options.shard_threads = 1;
  options.admission.enabled = true;
  options.admission.window_seconds = 0.5;
  // About two thirds of the arrivals per window: admission refuses some.
  options.admission.tuples_per_window = 500;
  const core::ShardedRunResult run = core::SimulateSharded(
      WorkloadFor(Shape::kSingle),
      sched::PolicyConfig::Of(sched::PolicyKind::kHnr), options);
  ExpectGolden("sharded-shed", Digest(run.result));
}

// --- Features off the matrix -------------------------------------------------
// Statistics drift, calibration, §10 adaptation and live telemetry each hook
// the dispatcher; these cells pin their results on the single-stream shape
// at batch 1 (drift refuses sharing groups and joins).

constexpr PolicyCase kFeaturePolicies[] = {
    {"fcfs", sched::PolicyKind::kFcfs},
    {"hnr", sched::PolicyKind::kHnr},
    {"lsf", sched::PolicyKind::kLsf},
    {"bsd", sched::PolicyKind::kBsd},
};

core::SimulationOptions DriftOptions() {
  const SimTime span = WorkloadFor(Shape::kSingle).arrivals.Horizon();
  core::SimulationOptions options;
  options.drift.enabled = true;
  options.drift.modulo = 3;
  options.drift.cost_factor = 2.5;
  options.drift.selectivity_factor = 0.6;
  options.drift.step_time = 0.3 * span;
  options.drift.ramp_seconds = 0.2 * span;
  return options;
}

TEST(DeliveryGoldenExtraTest, Drift) {
  for (const PolicyCase& p : kFeaturePolicies) {
    for (exec::SchedulingLevel level :
         {exec::SchedulingLevel::kQueryLevel,
          exec::SchedulingLevel::kOperatorLevel}) {
      core::SimulationOptions options = DriftOptions();
      options.level = level;
      const bool query_level = level == exec::SchedulingLevel::kQueryLevel;
      ExpectGoldenRun(std::string("drift/") + (query_level ? "query" : "op") +
                          "/" + p.name,
                      WorkloadFor(Shape::kSingle),
                      sched::PolicyConfig::Of(p.kind), options,
                      /*traced=*/true);
    }
  }
}

TEST(DeliveryGoldenExtraTest, Calibration) {
  const SimTime span = WorkloadFor(Shape::kSingle).arrivals.Horizon();
  for (const PolicyCase& p : kFeaturePolicies) {
    for (bool drift : {false, true}) {
      core::SimulationOptions options =
          drift ? DriftOptions() : core::SimulationOptions{};
      options.calibration.enabled = true;
      options.calibration.period = span / 50.0;
      const core::RunResult run = core::Simulate(
          WorkloadFor(Shape::kSingle), sched::PolicyConfig::Of(p.kind),
          options);
      EXPECT_GT(run.counters.adaptation_ticks, 0);
      ExpectGoldenRun(std::string("calibration/") + p.name +
                          (drift ? "/drift" : ""),
                      WorkloadFor(Shape::kSingle),
                      sched::PolicyConfig::Of(p.kind), options,
                      /*traced=*/true);
    }
  }
}

TEST(DeliveryGoldenExtraTest, TelemetrySink) {
  // An attached hub is invisible in the result; its last published sample
  // is pinned field by field.
  for (const PolicyCase& p : kFeaturePolicies) {
    obs::TelemetryHub hub(1);
    core::SimulationOptions options;
    options.telemetry = &hub;
    const std::string name = std::string("telemetry/") + p.name;
    const std::string digest = Digest(core::Simulate(
        WorkloadFor(Shape::kSingle), sched::PolicyConfig::Of(p.kind), options));
    options.telemetry = nullptr;
    EXPECT_EQ(digest, Digest(core::Simulate(WorkloadFor(Shape::kSingle),
                                            sched::PolicyConfig::Of(p.kind),
                                            options)))
        << "an attached telemetry hub changed " << name;
    ExpectGolden(name, digest);
    obs::TelemetrySample s;
    ASSERT_TRUE(hub.cell(0)->TryRead(&s));
    EXPECT_TRUE(s.done);
    uint64_t h = 0xcbf29ce484222325ull;
    for (const double v : {s.virtual_sec, s.busy_sec, s.slowdown_sum,
                           s.max_slowdown}) {
      h = Fnv1a(&v, sizeof(v), h);
    }
    for (const int64_t v : {s.queued_tuples, s.tuples_executed,
                            s.tuples_emitted, s.tuples_filtered,
                            s.scheduling_points, s.slowdown_count}) {
      h = Fnv1a(&v, sizeof(v), h);
    }
    ExpectGolden(name + "/final-sample", Hex(h));
  }
}

}  // namespace
}  // namespace aqsios
