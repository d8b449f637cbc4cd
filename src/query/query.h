// Continuous-query plans and their scheduling statistics.
//
// A CompiledQuery augments a QuerySpec with the characterizing parameters of
// the paper (§2 and §5.2): per-segment global selectivity S_x, global average
// cost C̄_x, and the ideal total processing time T_k, from which every
// scheduling policy derives its priorities:
//
//   output rate     GR_x = S_x / C̄_x                       (HR, Eq. 4)
//   normalized rate V_x  = S_x / (C̄_x · T_k)               (HNR, Eq. 3)
//   BSD static part Φ_x  = S_x / (C̄_x · T_k²)              (BSD, §6.2.1)

#ifndef AQSIOS_QUERY_QUERY_H_
#define AQSIOS_QUERY_QUERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "query/operator.h"
#include "stream/tuple.h"

namespace aqsios::query {

using QueryId = int32_t;

/// How operator selectivities are realized at execution time.
enum class SelectivityMode {
  /// Paper §8 default: all filters of a query are predicates over the same
  /// synthetic uniform attribute, so they are perfectly correlated — the
  /// first (most selective) predicate filters, later ones pass survivors.
  kCorrelatedAttribute,
  /// Each filter is an independent Bernoulli draw with its own selectivity.
  kIndependent,
};

const char* SelectivityModeName(SelectivityMode mode);

/// Which input stream of a two-stream query a tuple entered through.
enum class Side { kLeft, kRight };

/// An additional stream input of a left-deep multi-join query: a pre-join
/// filter segment over `stream` and the window join that combines the
/// accumulated composite with it (§5.2's "multiple join operators, defined
/// recursively").
struct JoinStage {
  stream::StreamId stream = 0;
  std::vector<OperatorSpec> side_ops;
  OperatorSpec join;
  /// Mean inter-arrival time τ of this stream (seconds).
  SimTime mean_inter_arrival = 1.0;
};

/// Static description of one continuous query.
///
/// Single-stream queries are a linear chain in `left_ops` (leaf first, root
/// last) with `join_op`, `right_ops`, `common_ops` unused. Two-stream
/// queries have left/right pre-join segments, a window-join operator, and a
/// post-join common segment (paper Figure 3); any segment may be empty.
/// Queries over three or more streams add one JoinStage per extra stream
/// (left-deep): the output of each stage joins the next stream before the
/// common segment runs.
struct QuerySpec {
  QueryId id = 0;
  stream::StreamId left_stream = 0;
  /// -1 marks a single-stream query.
  stream::StreamId right_stream = -1;

  std::vector<OperatorSpec> left_ops;
  std::vector<OperatorSpec> right_ops;
  std::optional<OperatorSpec> join_op;
  /// Third and later stream inputs (left-deep join pipeline).
  std::vector<JoinStage> extra_stages;
  std::vector<OperatorSpec> common_ops;

  /// Mean inter-arrival times τ of the input streams (seconds); used by the
  /// window-occupancy estimate S_R · V/τ_R in the multi-stream priority
  /// parameters (§5.2). Ignored for single-stream queries.
  SimTime left_mean_inter_arrival = 1.0;
  SimTime right_mean_inter_arrival = 1.0;

  /// Workload class metadata for per-class metrics (paper Figure 11).
  int cost_class = 0;
  double class_selectivity = 1.0;

  bool is_multi_stream() const { return right_stream >= 0; }
};

/// The characterizing parameters of an operator segment E_x (§2).
struct SegmentStats {
  /// Global selectivity S_x: expected tuples emitted at the root per tuple
  /// processed down the segment.
  double selectivity = 1.0;
  /// Global average cost C̄_x: expected time to process one tuple down the
  /// segment (selectivity-discounted), in seconds.
  SimTime expected_cost = 0.0;
  /// Ideal total processing time T_k of the owning query, in seconds.
  SimTime ideal_time = 0.0;

  /// HR priority (Eq. 4).
  double OutputRate() const { return selectivity / expected_cost; }
  /// HNR priority (Eq. 3).
  double NormalizedRate() const {
    return selectivity / (expected_cost * ideal_time);
  }
  /// Static component of the BSD priority (§6.2.1).
  double Phi() const {
    return selectivity / (expected_cost * ideal_time * ideal_time);
  }
};

/// A QuerySpec plus derived statistics. Immutable after construction.
class CompiledQuery {
 public:
  CompiledQuery(QuerySpec spec, SelectivityMode mode);

  const QuerySpec& spec() const { return spec_; }
  QueryId id() const { return spec_.id; }
  bool is_multi_stream() const { return spec_.is_multi_stream(); }
  SelectivityMode selectivity_mode() const { return mode_; }

  /// Ideal total processing time T_k (Definition 2 / Definition 6), seconds.
  SimTime ideal_time() const { return ideal_time_; }

  /// Number of operators in the single-stream chain.
  int chain_length() const { return static_cast<int>(spec_.left_ops.size()); }

  /// Effective (conditional) selectivity of chain operator x: the pass
  /// probability given the tuple reached x. Equal to the spec selectivity in
  /// independent mode; the min-chain conditional in correlated mode.
  double EffectiveChainSelectivity(int x) const;

  /// Stats of the single-stream segment E_x starting at chain position x
  /// (0 = leaf) and running to the root.
  SegmentStats ChainSegmentStats(int x) const;

  /// Like ChainSegmentStats but computed from the operators' *actual*
  /// execution-time selectivities (which may drift from the assumed ones,
  /// see OperatorSpec::actual_selectivity). What an oracle scheduler, the
  /// load calibration, and the online calibrator converge to.
  SegmentStats ActualChainSegmentStats(int x) const;

  /// Stats of the full leaf-to-root segment.
  SegmentStats LeafStats() const;

  /// Stats of the virtual segment E_LL or E_RR of a two-stream query (§5.2).
  SegmentStats SideLeafStats(Side side) const;

  /// Number of join stream inputs: 0 for single-stream queries, 2 + number
  /// of extra stages otherwise. Input 0 is the left stream, input 1 the
  /// right stream of the base join, input j >= 2 the stream of extra stage
  /// j-2.
  int num_join_inputs() const;

  /// Number of join stages (1 + extra stages) for multi-stream queries.
  int num_join_stages() const;

  /// The stream feeding join input `input`.
  stream::StreamId JoinInputStream(int input) const;

  /// Stats of the virtual operator segment rooted at join input `input`
  /// (the recursive generalization of SideLeafStats; equal to it for
  /// inputs 0/1 of a two-stream query).
  SegmentStats JoinInputStats(int input) const;

  /// Ideal processing cost of a composite tuple from the moment its
  /// triggering (latest-arriving) constituent arrives, assuming an idle
  /// system: C_side(trigger) + Σ_{stages the trigger passes} C_J + C_C.
  /// Used for the ideal departure time D_ideal in the multi-stream slowdown
  /// (§5.1.2).
  SimTime IdealCompositePathCost(int trigger_input) const;
  SimTime IdealCompositePathCost(Side trigger_side) const;

  /// Undiscounted total cost of the left / right / common segment and the
  /// join (components of Definition 6).
  SimTime TotalSideCost(Side side) const;
  SimTime TotalSideCost(int input) const;
  SimTime TotalCommonCost() const;
  SimTime JoinCost() const;
  /// Join operator of stage s (0 = the base join_op).
  const OperatorSpec& StageJoin(int stage) const;

  /// Expected number of partner tuples resident in the opposite hash table:
  /// S_other · V / τ_other (§5.2).
  double ExpectedWindowPartners(Side side) const;

  /// Expected total work this query induces per arrival on the given stream
  /// (C̄ of the corresponding leaf segment) under the *assumed* statistics.
  SimTime ExpectedWorkPerArrival(stream::StreamId stream) const;

  /// Expected work per arrival under the *actual* selectivities; equals
  /// ExpectedWorkPerArrival when nothing drifts. Load calibration uses this
  /// (the true load is what the system really executes).
  SimTime ActualExpectedWorkPerArrival(stream::StreamId stream) const;

  /// Smallest operator cost in the plan (seconds); scheduling-overhead unit.
  SimTime MinOperatorCost() const;

 private:
  void Validate() const;
  void ComputeDerived();

  QuerySpec spec_;
  SelectivityMode mode_;
  SimTime ideal_time_ = 0.0;
  /// Effective conditional selectivities of the single-stream chain.
  std::vector<double> chain_effective_selectivity_;
  /// Same, computed from the actual execution-time selectivities.
  std::vector<double> actual_chain_effective_selectivity_;
  /// Effective conditional selectivities of left/right/common segments.
  std::vector<double> left_effective_selectivity_;
  std::vector<double> right_effective_selectivity_;
  std::vector<double> common_effective_selectivity_;
  /// Effective selectivities of each extra stage's side segment.
  std::vector<std::vector<double>> stage_effective_selectivity_;

  /// Pre-join side operators / effective selectivities / τ of join input j.
  const std::vector<OperatorSpec>& SideOps(int input) const;
  const std::vector<double>& SideEffective(int input) const;
  SimTime SideTau(int input) const;
  /// Survivor probability of input j's side segment.
  double SideSelectivity(int input) const;
  /// Selectivity-discounted expected cost of input j's side segment.
  SimTime SideExpectedCost(int input) const;
  /// Rate (tuples/second) of survivors arriving at input j's join.
  double SideSurvivorRate(int input) const;
  /// Output rate (composites/second) of stage s (pairs within the window
  /// counted once); λ in the recursive §5.2 generalization.
  double StageOutputRate(int stage) const;
  /// Expected cost incurred by one composite emitted by stage s on its way
  /// to the root (joins of later stages plus the common segment).
  SimTime DownstreamCompositeCost(int stage) const;
  /// Expected composites produced per composite crossing stage s from the
  /// accumulated (left) side: resident stream-side partners × match prob.
  double StageCompositeAmplification(int stage) const;
  /// Resident tuples on one side of a join stage (time windows: rate × V;
  /// row windows: the row count).
  double StageSideOccupancy(int stage, bool stream_side) const;
};

/// Segment-level selectivity of a sub-chain given effective per-operator
/// selectivities (product of effective selectivities).
double ChainSelectivity(const std::vector<double>& effective, size_t begin,
                        size_t end);

/// Selectivity-discounted expected cost of processing one tuple through
/// ops[begin, end), with effective selectivities aligned to ops.
SimTime ChainExpectedCost(const std::vector<OperatorSpec>& ops,
                          const std::vector<double>& effective, size_t begin,
                          size_t end);

/// Sum of undiscounted operator costs of ops[begin, end).
SimTime ChainTotalCost(const std::vector<OperatorSpec>& ops, size_t begin,
                       size_t end);

/// Computes effective conditional selectivities from raw per-operator
/// selectivity values under the given mode.
std::vector<double> EffectiveSelectivitiesFromValues(
    const std::vector<double>& raw, SelectivityMode mode);

/// Computes effective conditional selectivities for a chain of filters under
/// the given mode (see CompiledQuery::EffectiveChainSelectivity).
std::vector<double> EffectiveSelectivities(const std::vector<OperatorSpec>& ops,
                                           SelectivityMode mode);

/// Same, from the operators' actual execution-time selectivities.
std::vector<double> ActualEffectiveSelectivities(
    const std::vector<OperatorSpec>& ops, SelectivityMode mode);

}  // namespace aqsios::query

#endif  // AQSIOS_QUERY_QUERY_H_
