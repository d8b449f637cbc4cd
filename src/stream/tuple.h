// Tuple and stream-arrival records.
//
// The simulator separates a stream *arrival* (one physical tuple entering
// the DSMS, fanned out to every query subscribed to that stream) from the
// per-query pending work items that reference it.

#ifndef AQSIOS_STREAM_TUPLE_H_
#define AQSIOS_STREAM_TUPLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sim_time.h"

namespace aqsios::stream {

/// Global identifier of an arrival. In a whole-workload table ids equal the
/// table index; a shard's sub-table keeps the global ids of the arrivals
/// routed to it (so frozen per-arrival draws and trace ids are
/// shard-invariant) while queue entries index into the sub-table.
using ArrivalId = int64_t;

/// Identifier of a data stream within a workload.
using StreamId = int32_t;

/// One physical tuple arriving on a stream.
///
/// Following the paper's testbed (§8), each tuple carries a synthetic
/// attribute uniform in [1, 100] used to realize operator selectivities, and
/// a join key used by windowed joins.
///
/// The two 4-byte fields sit side by side so the record packs into 32 bytes
/// with no padding: the arrival table is the simulator's largest input.
struct Arrival {
  ArrivalId id = 0;
  /// Arrival timestamp A_i (seconds).
  SimTime time = 0.0;
  /// Synthetic selectivity-control attribute, uniform real in (0, 100].
  double attribute = 0.0;
  StreamId stream = 0;
  /// Join key for windowed joins.
  int32_t join_key = 0;
};
static_assert(sizeof(Arrival) == 32, "Arrival must stay 32 bytes");

/// An arrival table: arrivals of all streams merged in non-decreasing time
/// order. In a full workload table Arrival::id equals the index into
/// `arrivals`; shard sub-tables preserve global ids (see ArrivalId).
struct ArrivalTable {
  std::vector<Arrival> arrivals;

  int64_t size() const { return static_cast<int64_t>(arrivals.size()); }
  bool empty() const { return arrivals.empty(); }

  /// Mean inter-arrival time across the whole table; 0 if fewer than two
  /// arrivals.
  SimTime MeanInterArrival() const;

  /// Mean inter-arrival time of one stream's arrivals; 0 if fewer than two.
  SimTime MeanInterArrival(StreamId stream) const;

  /// Total simulated horizon (time of last arrival); 0 when empty.
  SimTime Horizon() const;
};

/// Arrival-table indexes grouped by stream, each stream's in table order:
/// the k-th arrival of stream s is arrivals[rows[offsets[s] + k]]. The
/// engine's leaf queues are ranges over a stream's rows (sched::StreamFeed),
/// so the index is built once per table — 4 bytes per arrival — and engines
/// running over one table share it.
struct StreamRowIndex {
  std::vector<uint32_t> rows;
  /// num_streams + 1 entries.
  std::vector<int64_t> offsets;

  int num_streams() const { return static_cast<int>(offsets.size()) - 1; }
  const uint32_t* RowsOf(StreamId stream) const {
    return rows.data() + offsets[static_cast<size_t>(stream)];
  }
  int64_t SizeOf(StreamId stream) const {
    return offsets[static_cast<size_t>(stream) + 1] -
           offsets[static_cast<size_t>(stream)];
  }
};

/// Builds the index of `table` over streams [0, num_streams) (every arrival's
/// stream must lie in that range; checked).
StreamRowIndex BuildStreamRowIndex(const ArrivalTable& table, int num_streams);

}  // namespace aqsios::stream

#endif  // AQSIOS_STREAM_TUPLE_H_
