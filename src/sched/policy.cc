#include "sched/policy.h"

#include <algorithm>
#include <cctype>

#include "common/check.h"
#include "sched/basic_policies.h"
#include "sched/lp_norm_policy.h"
#include "sched/two_level.h"

namespace aqsios::sched {

const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFcfs:
      return "FCFS";
    case PolicyKind::kRoundRobin:
      return "RR";
    case PolicyKind::kSrpt:
      return "SRPT";
    case PolicyKind::kHr:
      return "HR";
    case PolicyKind::kHnr:
      return "HNR";
    case PolicyKind::kLsf:
      return "LSF";
    case PolicyKind::kBsd:
      return "BSD";
    case PolicyKind::kBsdClustered:
      return "BSD-Clustered";
    case PolicyKind::kChain:
      return "Chain";
    case PolicyKind::kTwoLevelRr:
      return "RR+RB";
    case PolicyKind::kLpNorm:
      return "Lp-SD";
    case PolicyKind::kQosGraph:
      return "QoS-Graph";
  }
  return "unknown";
}

StatusOr<PolicyKind> ParsePolicyKind(const std::string& text) {
  std::string lower = text;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "fcfs") return PolicyKind::kFcfs;
  if (lower == "rr" || lower == "roundrobin") return PolicyKind::kRoundRobin;
  if (lower == "srpt") return PolicyKind::kSrpt;
  if (lower == "hr") return PolicyKind::kHr;
  if (lower == "hnr") return PolicyKind::kHnr;
  if (lower == "lsf") return PolicyKind::kLsf;
  if (lower == "bsd") return PolicyKind::kBsd;
  if (lower == "bsd-clustered" || lower == "bsdclustered") {
    return PolicyKind::kBsdClustered;
  }
  if (lower == "chain") return PolicyKind::kChain;
  if (lower == "rr-rb" || lower == "rrrb") return PolicyKind::kTwoLevelRr;
  if (lower == "lp") return PolicyKind::kLpNorm;
  if (lower == "qos-graph" || lower == "qosgraph") {
    return PolicyKind::kQosGraph;
  }
  return Status::InvalidArgument("unknown policy: " + text);
}

std::unique_ptr<Scheduler> CreateScheduler(const PolicyConfig& config) {
  switch (config.kind) {
    case PolicyKind::kFcfs:
      return std::make_unique<FcfsScheduler>();
    case PolicyKind::kRoundRobin:
      return std::make_unique<RoundRobinScheduler>();
    case PolicyKind::kSrpt:
      return std::make_unique<StaticPriorityScheduler>(StaticPolicy::kSrpt);
    case PolicyKind::kHr:
      return std::make_unique<StaticPriorityScheduler>(StaticPolicy::kHr);
    case PolicyKind::kHnr:
      return std::make_unique<StaticPriorityScheduler>(StaticPolicy::kHnr);
    case PolicyKind::kLsf:
      return std::make_unique<LsfScheduler>();
    case PolicyKind::kBsd:
      return std::make_unique<BsdScheduler>(config.bsd_count_all_units);
    case PolicyKind::kBsdClustered:
      return std::make_unique<ClusteredBsdScheduler>(config.clustered);
    case PolicyKind::kChain:
      return std::make_unique<StaticPriorityScheduler>(StaticPolicy::kChain);
    case PolicyKind::kTwoLevelRr:
      return std::make_unique<TwoLevelRrScheduler>();
    case PolicyKind::kLpNorm:
      return std::make_unique<LpNormScheduler>(config.lp_norm_p);
    case PolicyKind::kQosGraph:
      return std::make_unique<QosGraphScheduler>(config.qos_graph);
  }
  AQSIOS_CHECK(false) << "unknown policy kind";
  return nullptr;
}

}  // namespace aqsios::sched
