// Stochastic arrival processes generating stream timestamps.
//
// The paper drives its single-stream experiments with the LBL-PKT-4 packet
// trace, used purely as a realistic bursty (On/Off) arrival pattern, and its
// multi-stream experiments with Poisson arrivals. We implement:
//
//  * PoissonArrivalProcess       — exponential inter-arrivals;
//  * DeterministicArrivalProcess — fixed spacing (useful in tests);
//  * OnOffArrivalProcess         — Markov-modulated Poisson process
//                                  (exponential ON/OFF sojourn times, Poisson
//                                  arrivals during ON, silence during OFF):
//                                  the standard generative model for LBL-style
//                                  wide-area On/Off traffic (see DESIGN.md
//                                  substitution table);
//  * TraceArrivalProcess         — replays explicit timestamps (e.g. from a
//                                  trace file, see stream/trace.h).

#ifndef AQSIOS_STREAM_ARRIVAL_PROCESS_H_
#define AQSIOS_STREAM_ARRIVAL_PROCESS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "stream/tuple.h"

namespace aqsios::stream {

/// Produces a monotonically non-decreasing sequence of arrival timestamps.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Returns the next absolute arrival time (seconds). Values are
  /// non-decreasing across calls.
  virtual SimTime NextArrivalTime() = 0;
};

/// Poisson arrivals with the given mean rate (arrivals per second).
class PoissonArrivalProcess : public ArrivalProcess {
 public:
  PoissonArrivalProcess(double rate, uint64_t seed);

  SimTime NextArrivalTime() override;

 private:
  double rate_;
  Rng rng_;
  SimTime now_ = 0.0;
};

/// Fixed-interval arrivals starting at `start`.
class DeterministicArrivalProcess : public ArrivalProcess {
 public:
  explicit DeterministicArrivalProcess(SimTime interval, SimTime start = 0.0);

  SimTime NextArrivalTime() override;

 private:
  SimTime interval_;
  SimTime next_;
};

/// Configuration of the On/Off (MMPP-2) arrival process.
struct OnOffConfig {
  /// Arrival rate while in the ON state (arrivals/second).
  double on_rate = 1000.0;
  /// Mean sojourn time in the ON state (seconds).
  double mean_on_duration = 0.5;
  /// Mean sojourn time in the OFF state (seconds).
  double mean_off_duration = 0.5;

  /// Long-run mean arrival rate implied by this configuration.
  double MeanRate() const {
    return on_rate * mean_on_duration / (mean_on_duration + mean_off_duration);
  }
};

/// Markov-modulated Poisson process: alternating exponentially distributed
/// ON and OFF periods; Poisson arrivals at `on_rate` during ON periods and no
/// arrivals during OFF periods. Stands in for the LBL-PKT-4 trace's bursty
/// On/Off wide-area traffic.
class OnOffArrivalProcess : public ArrivalProcess {
 public:
  OnOffArrivalProcess(const OnOffConfig& config, uint64_t seed);

  SimTime NextArrivalTime() override;

 private:
  OnOffConfig config_;
  Rng rng_;
  SimTime now_ = 0.0;
  /// End of the current ON period; arrivals past it roll into the next one.
  SimTime on_period_end_ = 0.0;
  bool in_on_period_ = false;
};

/// Replays a fixed vector of timestamps (must be non-decreasing). After the
/// trace is exhausted, returns +infinity.
class TraceArrivalProcess : public ArrivalProcess {
 public:
  explicit TraceArrivalProcess(std::vector<SimTime> timestamps);

  SimTime NextArrivalTime() override;

  int64_t remaining() const {
    return static_cast<int64_t>(timestamps_.size()) - next_index_;
  }

 private:
  std::vector<SimTime> timestamps_;
  int64_t next_index_ = 0;
};

/// Draws `count` arrivals from `process` for stream `stream`, assigning each
/// tuple a uniform (0, 100] attribute and a join key uniform in
/// [0, num_join_keys). Arrival ids are assigned by the caller when tables of
/// several streams are merged (see MergeArrivalTables).
std::vector<Arrival> GenerateArrivals(ArrivalProcess& process, StreamId stream,
                                      int64_t count, uint64_t seed,
                                      int32_t num_join_keys = 100);

/// Merges per-stream arrival vectors ("runs") into one time-ordered table
/// and assigns dense ArrivalIds (an arrival's id is its table index).
///
/// Precondition: every run is non-decreasing in time and every time is
/// finite. Every ArrivalProcess yields such runs; a violation aborts
/// (AQSIOS_CHECK). Ties go to the lower run index, then to the earlier
/// position in the run: the order a stable sort of the runs' concatenation
/// gives. One tournament (loser-tree) merge writes each arrival once into a
/// table reserved up front; a single run is moved, not copied.
ArrivalTable MergeArrivalTables(std::vector<std::vector<Arrival>> per_stream);

}  // namespace aqsios::stream

#endif  // AQSIOS_STREAM_ARRIVAL_PROCESS_H_
