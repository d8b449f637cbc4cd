// Typed trace events recorded by the execution engine.
//
// Every event is stamped with the *virtual* clock: the trace explains where
// simulated time went (wait W_x, processing T, scheduling overhead,
// dependency delay), not where wall-clock went. One compact POD per event so
// the tracer's ring buffer stays allocation-free on the hot path.

#ifndef AQSIOS_OBS_EVENT_H_
#define AQSIOS_OBS_EVENT_H_

#include <cstdint>

#include "common/sim_time.h"

namespace aqsios::obs {

enum class EventKind : uint8_t {
  /// A stream tuple entered the system. query = -1, unit = stream id,
  /// a = arrival id.
  kTupleArrival,
  /// A queue entry was pushed onto a unit's input queue. a = arrival id.
  kEnqueue,
  /// One unit execution (pipelined segment run). time = start,
  /// duration = busy time; a = arrival id of the consumed head entry.
  kSegmentRun,
  /// One operator invocation inside an execution. duration = operator cost.
  kOperatorInvocation,
  /// A tuple was emitted at a query root. a = arrival id, b = slowdown.
  kEmit,
  /// A tuple failed an operator predicate and was dropped.
  kFilterDrop,
  /// A window-join probe. a = matching candidates found.
  kJoinProbe,
  /// A scheduling decision. unit = chosen unit, a = candidates scanned,
  /// b = priority value of the chosen unit (policy-specific; 0 when the
  /// policy computes no numeric priority).
  kSchedDecision,
  /// An epoch of the statistics estimator (sched/calibration.h). a = units
  /// whose stats it rewrote.
  kAdaptationTick,
  /// A source tuple was shed at admission to a leaf queue (QoS-aware load
  /// shedding, exec::ShedConfig). a = arrival id, b = total queued tuples
  /// when the shed decision was made.
  kShed,
};

const char* EventKindName(EventKind kind);

struct TraceEvent {
  EventKind kind = EventKind::kTupleArrival;
  /// Virtual time of the event (start time for kSegmentRun).
  SimTime time = 0.0;
  /// Virtual duration for span-like events; 0 for instants.
  SimTime duration = 0.0;
  /// Schedulable unit id, or -1 when not unit-scoped.
  int32_t unit = -1;
  /// Query id, or -1 when not query-scoped.
  int32_t query = -1;
  /// Kind-specific integer payload (arrival id, candidates, ...).
  int64_t a = 0;
  /// Kind-specific double payload (priority, slowdown, ...).
  double b = 0.0;
  /// Shard that recorded the event. Engines record 0 (each shard's tracer is
  /// a private single-producer sink); MergeShardTraces (obs/shard_trace.h)
  /// stamps the shard index when combining per-shard timelines.
  int16_t shard = 0;
};

}  // namespace aqsios::obs

#endif  // AQSIOS_OBS_EVENT_H_
