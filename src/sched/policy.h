// Policy configuration and scheduler factory.

#ifndef AQSIOS_SCHED_POLICY_H_
#define AQSIOS_SCHED_POLICY_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "sched/clustered_bsd.h"
#include "sched/qos_graph.h"
#include "sched/scheduler.h"

namespace aqsios::sched {

enum class PolicyKind {
  kFcfs,
  kRoundRobin,  // Aurora's two-level RR(+rate-based) scheme
  kSrpt,
  kHr,
  kHnr,
  kLsf,
  kBsd,           // exact (unclustered) BSD, Eq. 6
  kBsdClustered,  // clustered BSD implementation (§6.2)
  kChain,         // memory-minimizing baseline (Table 3, [5])
  kTwoLevelRr,    // Aurora's RR-across-queries + rate-based-within (§10)
  kLpNorm,        // generalized lp-norm slowdown policy (p in `lp_norm_p`)
  kQosGraph,      // Aurora's QoS-graph-driven scheduler (§10, [9])
};

const char* PolicyKindName(PolicyKind kind);

/// Parses "fcfs", "rr", "srpt", "hr", "hnr", "lsf", "bsd", "bsd-clustered",
/// "chain", "rr-rb", "lp" (case-insensitive).
StatusOr<PolicyKind> ParsePolicyKind(const std::string& text);

struct PolicyConfig {
  PolicyKind kind = PolicyKind::kHnr;
  /// Options for kBsdClustered.
  ClusteredBsdOptions clustered;
  /// For kBsd: whether the overhead accounting touches all q units (the
  /// naive implementation of §6.2) or only ready ones.
  bool bsd_count_all_units = true;
  /// For kLpNorm: the norm exponent p (1 = HNR, 2 = BSD).
  double lp_norm_p = 2.0;
  /// For kQosGraph: the default utility-graph shape.
  QosGraphOptions qos_graph;

  static PolicyConfig Of(PolicyKind kind) {
    PolicyConfig config;
    config.kind = kind;
    return config;
  }
};

std::unique_ptr<Scheduler> CreateScheduler(const PolicyConfig& config);

}  // namespace aqsios::sched

#endif  // AQSIOS_SCHED_POLICY_H_
