#include "obs/chrome_trace.h"

#include <cstdio>
#include <fstream>
#include <string>

#include "common/json.h"

namespace aqsios::obs {
namespace {

constexpr int64_t kPid = 1;
constexpr int64_t kSchedulerTid = 0;
constexpr int64_t kArrivalsTid = 1;
constexpr int64_t kQueryTidBase = 2;

int64_t TidOf(const TraceEvent& event, int num_shards) {
  // Sharded layout: shard s owns tids {2s, 2s+1}; query lanes are global and
  // follow all shard lanes, so a query keeps its lane across shard counts.
  const int64_t scheduler_tid =
      num_shards > 1 ? int64_t{2} * event.shard : kSchedulerTid;
  const int64_t arrivals_tid =
      num_shards > 1 ? int64_t{2} * event.shard + 1 : kArrivalsTid;
  const int64_t query_base =
      num_shards > 1 ? int64_t{2} * num_shards : kQueryTidBase;
  switch (event.kind) {
    case EventKind::kSchedDecision:
    case EventKind::kAdaptationTick:
      return scheduler_tid;
    case EventKind::kTupleArrival:
      return arrivals_tid;
    default:
      return event.query >= 0 ? query_base + event.query : arrivals_tid;
  }
}

/// Virtual seconds → trace microseconds.
double Ts(SimTime t) { return t * 1e6; }

void WriteThreadName(JsonWriter& json, int64_t tid, const std::string& name) {
  json.BeginObject();
  json.Key("name");
  json.String("thread_name");
  json.Key("ph");
  json.String("M");
  json.Key("pid");
  json.Number(kPid);
  json.Key("tid");
  json.Number(tid);
  json.Key("args");
  json.BeginObject();
  json.Key("name");
  json.String(name);
  json.EndObject();
  json.EndObject();
}

void WriteEvent(JsonWriter& json, const TraceEvent& event, int num_shards) {
  const bool span = event.kind == EventKind::kSegmentRun ||
                    event.kind == EventKind::kOperatorInvocation;
  json.BeginObject();
  json.Key("name");
  json.String(EventKindName(event.kind));
  json.Key("ph");
  json.String(span ? "X" : "i");
  json.Key("ts");
  json.Number(Ts(event.time));
  if (span) {
    json.Key("dur");
    json.Number(Ts(event.duration));
  } else {
    // Thread-scoped instant: renders as a tick on its lane.
    json.Key("s");
    json.String("t");
  }
  json.Key("pid");
  json.Number(kPid);
  json.Key("tid");
  json.Number(TidOf(event, num_shards));
  json.Key("args");
  json.BeginObject();
  if (num_shards > 1) {
    json.Key("shard");
    json.Number(static_cast<int64_t>(event.shard));
  }
  if (event.unit >= 0) {
    json.Key("unit");
    json.Number(static_cast<int64_t>(event.unit));
  }
  if (event.query >= 0) {
    json.Key("query");
    json.Number(static_cast<int64_t>(event.query));
  }
  switch (event.kind) {
    case EventKind::kTupleArrival:
      json.Key("arrival");
      json.Number(event.a);
      json.Key("stream");
      json.Number(static_cast<int64_t>(event.unit));
      break;
    case EventKind::kEnqueue:
    case EventKind::kSegmentRun:
      json.Key("arrival");
      json.Number(event.a);
      break;
    case EventKind::kShed:
      json.Key("arrival");
      json.Number(event.a);
      json.Key("queued_tuples");
      json.Number(event.b);
      break;
    case EventKind::kEmit:
      json.Key("arrival");
      json.Number(event.a);
      json.Key("slowdown");
      json.Number(event.b);
      break;
    case EventKind::kJoinProbe:
      json.Key("matches");
      json.Number(event.a);
      break;
    case EventKind::kSchedDecision:
      json.Key("candidates");
      json.Number(event.a);
      json.Key("priority");
      json.Number(event.b);
      break;
    case EventKind::kAdaptationTick:
      json.Key("units_refreshed");
      json.Number(event.a);
      break;
    case EventKind::kOperatorInvocation:
    case EventKind::kFilterDrop:
      break;
  }
  json.EndObject();
  json.EndObject();
}

}  // namespace

std::string ChromeTraceJson(const std::vector<TraceEvent>& events,
                            const ChromeTraceMeta& meta) {
  JsonWriter json;
  json.BeginObject();
  json.Key("displayTimeUnit");
  json.String("ms");
  json.Key("traceEvents");
  json.BeginArray();
  const std::string policy_suffix =
      meta.policy.empty() ? "" : " (" + meta.policy + ")";
  if (meta.num_shards > 1) {
    for (int s = 0; s < meta.num_shards; ++s) {
      const std::string shard = "shard" + std::to_string(s);
      WriteThreadName(json, int64_t{2} * s, shard + " scheduler" +
                                                policy_suffix);
      WriteThreadName(json, int64_t{2} * s + 1, shard + " arrivals");
    }
  } else {
    WriteThreadName(json, kSchedulerTid,
                    meta.policy.empty() ? "scheduler"
                                        : "scheduler" + policy_suffix);
    WriteThreadName(json, kArrivalsTid, "arrivals");
  }
  const int64_t query_base =
      meta.num_shards > 1 ? int64_t{2} * meta.num_shards : kQueryTidBase;
  for (int q = 0; q < meta.num_queries; ++q) {
    // Built with snprintf: GCC 12 flags `"Q" + std::to_string(q)` with a
    // false-positive -Wrestrict.
    char query_name[16];
    std::snprintf(query_name, sizeof(query_name), "Q%d", q);
    WriteThreadName(json, query_base + q, query_name);
  }
  for (const TraceEvent& event : events) {
    WriteEvent(json, event, meta.num_shards);
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

Status WriteChromeTrace(const std::string& path, const EventTracer& tracer,
                        const ChromeTraceMeta& meta) {
  return WriteChromeTrace(path, tracer.Events(), meta);
}

Status WriteChromeTrace(const std::string& path,
                        const std::vector<TraceEvent>& events,
                        const ChromeTraceMeta& meta) {
  std::ofstream file(path);
  if (!file) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  file << ChromeTraceJson(events, meta) << "\n";
  if (!file.good()) {
    return Status::IoError("write to " + path + " failed");
  }
  return Status::Ok();
}

}  // namespace aqsios::obs
