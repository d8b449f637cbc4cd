#include "obs/tracer.h"

#include <gtest/gtest.h>

#include "core/dsms.h"
#include "query/workload.h"

namespace aqsios::obs {
namespace {

TraceEvent Instant(EventKind kind, double time, int64_t a = 0) {
  TraceEvent event;
  event.kind = kind;
  event.time = time;
  event.a = a;
  return event;
}

TEST(EventTracerTest, RecordsInOrderBelowCapacity) {
  EventTracer tracer(8);
  tracer.Record(Instant(EventKind::kTupleArrival, 0.1, 1));
  tracer.Record(Instant(EventKind::kEmit, 0.2, 2));
  EXPECT_EQ(tracer.capacity(), 8u);
  EXPECT_EQ(tracer.recorded(), 2);
  EXPECT_EQ(tracer.dropped(), 0);
  EXPECT_EQ(tracer.size(), 2u);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kTupleArrival);
  EXPECT_EQ(events[1].kind, EventKind::kEmit);
}

TEST(EventTracerTest, RingWrapKeepsNewestOldestFirst) {
  EventTracer tracer(4);
  for (int i = 0; i < 6; ++i) {
    tracer.Record(Instant(EventKind::kEnqueue, 0.1 * i, i));
  }
  EXPECT_EQ(tracer.recorded(), 6);
  EXPECT_EQ(tracer.dropped(), 2);
  EXPECT_EQ(tracer.size(), 4u);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  // Events 0 and 1 were overwritten; the window is 2,3,4,5 oldest-first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i)].a, i + 2);
  }
}

// The masked ring pin: a non-power-of-two capacity rounds up to the next
// power of two, and wraparound under the mask keeps exactly the newest
// `capacity` events oldest-first — the same window the modulo ring kept.
TEST(EventTracerTest, NonPowerOfTwoCapacityRoundsUpAndWrapsEquivalently) {
  EventTracer tracer(6);
  EXPECT_EQ(tracer.capacity(), 8u);
  for (int i = 0; i < 21; ++i) {
    tracer.Record(Instant(EventKind::kEnqueue, 0.01 * i, i));
  }
  EXPECT_EQ(tracer.recorded(), 21);
  EXPECT_EQ(tracer.dropped(), 13);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i)].a, i + 13);
  }
}

TEST(EventTracerTest, CountOfAndClear) {
  EventTracer tracer(16);
  tracer.Record(Instant(EventKind::kEmit, 0.1));
  tracer.Record(Instant(EventKind::kEmit, 0.2));
  tracer.Record(Instant(EventKind::kFilterDrop, 0.3));
  EXPECT_EQ(tracer.CountOf(EventKind::kEmit), 2);
  EXPECT_EQ(tracer.CountOf(EventKind::kFilterDrop), 1);
  EXPECT_EQ(tracer.CountOf(EventKind::kJoinProbe), 0);
  tracer.Clear();
  EXPECT_EQ(tracer.recorded(), 0);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.CountOf(EventKind::kEmit), 0);
}

TEST(EventTracerTest, EventKindNamesAreStable) {
  EXPECT_STREQ(EventKindName(EventKind::kTupleArrival), "tuple_arrival");
  EXPECT_STREQ(EventKindName(EventKind::kSchedDecision), "sched_decision");
  EXPECT_STREQ(EventKindName(EventKind::kSegmentRun), "segment_run");
}

query::Workload SmallWorkload() {
  query::WorkloadConfig config;
  config.num_queries = 8;
  config.num_arrivals = 400;
  config.seed = 17;
  config.utilization = 0.9;
  return query::GenerateWorkload(config);
}

void ExpectSameResult(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.qos.tuples_emitted, b.qos.tuples_emitted);
  EXPECT_EQ(a.qos.avg_slowdown, b.qos.avg_slowdown);
  EXPECT_EQ(a.qos.max_slowdown, b.qos.max_slowdown);
  EXPECT_EQ(a.qos.l2_slowdown, b.qos.l2_slowdown);
  EXPECT_EQ(a.qos.p50_slowdown, b.qos.p50_slowdown);
  EXPECT_EQ(a.qos.p999_slowdown, b.qos.p999_slowdown);
  EXPECT_EQ(a.counters.scheduling_points, b.counters.scheduling_points);
  EXPECT_EQ(a.counters.unit_executions, b.counters.unit_executions);
  EXPECT_EQ(a.counters.operator_invocations, b.counters.operator_invocations);
  EXPECT_EQ(a.counters.tuples_emitted, b.counters.tuples_emitted);
  EXPECT_EQ(a.counters.tuples_filtered, b.counters.tuples_filtered);
  EXPECT_EQ(a.counters.decision_candidates, b.counters.decision_candidates);
  EXPECT_EQ(a.counters.priority_computations,
            b.counters.priority_computations);
  EXPECT_EQ(a.counters.busy_time, b.counters.busy_time);
  EXPECT_EQ(a.counters.end_time, b.counters.end_time);
  EXPECT_EQ(a.counters.queue_length.count, b.counters.queue_length.count);
  EXPECT_EQ(a.counters.queue_length.p99, b.counters.queue_length.p99);
  EXPECT_EQ(a.counters.exec_busy.mean, b.counters.exec_busy.mean);
}

// The null-sink fast path pin: attaching a tracer (and attribution
// sampling) is observation-only — every QoS metric and every counter is
// bit-identical to the untraced run.
TEST(EventTracerTest, TracedRunIsBitIdenticalToUntraced) {
  const query::Workload workload = SmallWorkload();
  for (auto kind : {sched::PolicyKind::kHnr, sched::PolicyKind::kBsd,
                    sched::PolicyKind::kRoundRobin}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const auto policy = sched::PolicyConfig::Of(kind);
    core::SimulationOptions plain;
    const core::RunResult base = core::Simulate(workload, policy, plain);

    EventTracer tracer;
    core::SimulationOptions traced = plain;
    traced.tracer = &tracer;
    traced.attribution_sample_every = 8;
    const core::RunResult observed = core::Simulate(workload, policy, traced);

    EXPECT_GT(tracer.recorded(), 0);
    ExpectSameResult(base, observed);
    // The only allowed difference: the traced run carries attribution.
    EXPECT_EQ(base.counters.attribution.samples(), 0);
    EXPECT_GT(observed.counters.attribution.samples(), 0);
  }
}

// With a large enough ring, surviving event counts must agree exactly with
// the engine's own RunCounters — the tracer sees every countable event.
TEST(EventTracerTest, EventCountsMatchRunCounters) {
  const query::Workload workload = SmallWorkload();
  EventTracer tracer(size_t{1} << 20);
  core::SimulationOptions options;
  options.tracer = &tracer;
  // Estimator epochs are controller events too.
  options.calibration.enabled = true;
  options.calibration.period = 0.05;
  const core::RunResult result = core::Simulate(
      workload, sched::PolicyConfig::Of(sched::PolicyKind::kHnr), options);

  ASSERT_EQ(tracer.dropped(), 0) << "ring too small for this workload";
  const exec::RunCounters& counters = result.counters;
  EXPECT_EQ(tracer.CountOf(EventKind::kSchedDecision),
            counters.scheduling_points);
  EXPECT_EQ(tracer.CountOf(EventKind::kSegmentRun), counters.unit_executions);
  EXPECT_EQ(tracer.CountOf(EventKind::kOperatorInvocation),
            counters.operator_invocations);
  EXPECT_EQ(tracer.CountOf(EventKind::kEmit), counters.tuples_emitted);
  EXPECT_EQ(tracer.CountOf(EventKind::kFilterDrop), counters.tuples_filtered);
  EXPECT_GT(counters.adaptation_ticks, 0);
  EXPECT_EQ(tracer.CountOf(EventKind::kAdaptationTick),
            counters.adaptation_ticks);
  EXPECT_EQ(tracer.CountOf(EventKind::kTupleArrival),
            static_cast<int64_t>(workload.arrivals.arrivals.size()));
}

// Scheduling decisions expose the decision shape: candidates scanned sum to
// the counter, and every decision names a real unit.
TEST(EventTracerTest, SchedDecisionEventsCarryCandidates) {
  const query::Workload workload = SmallWorkload();
  EventTracer tracer(size_t{1} << 20);
  core::SimulationOptions options;
  options.tracer = &tracer;
  const core::RunResult result = core::Simulate(
      workload, sched::PolicyConfig::Of(sched::PolicyKind::kLsf), options);
  ASSERT_EQ(tracer.dropped(), 0);

  int64_t candidates = 0;
  for (const TraceEvent& event : tracer.Events()) {
    if (event.kind != EventKind::kSchedDecision) continue;
    EXPECT_GE(event.unit, 0);
    EXPECT_GE(event.a, 1);
    candidates += event.a;
  }
  EXPECT_EQ(candidates, result.counters.decision_candidates);
  // LSF scans the whole ready set, so on average > 1 candidate per decision.
  EXPECT_GT(result.counters.decision_candidates,
            result.counters.scheduling_points);
}

}  // namespace
}  // namespace aqsios::obs
