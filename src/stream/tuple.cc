#include "stream/tuple.h"

#include <limits>

#include "common/check.h"

namespace aqsios::stream {

SimTime ArrivalTable::MeanInterArrival() const {
  if (arrivals.size() < 2) return 0.0;
  const SimTime span = arrivals.back().time - arrivals.front().time;
  return span / static_cast<double>(arrivals.size() - 1);
}

SimTime ArrivalTable::MeanInterArrival(StreamId stream) const {
  SimTime first = 0.0;
  SimTime last = 0.0;
  int64_t count = 0;
  for (const Arrival& a : arrivals) {
    if (a.stream != stream) continue;
    if (count == 0) first = a.time;
    last = a.time;
    ++count;
  }
  if (count < 2) return 0.0;
  return (last - first) / static_cast<double>(count - 1);
}

SimTime ArrivalTable::Horizon() const {
  return arrivals.empty() ? 0.0 : arrivals.back().time;
}

StreamRowIndex BuildStreamRowIndex(const ArrivalTable& table,
                                   int num_streams) {
  AQSIOS_CHECK_GE(num_streams, 0);
  AQSIOS_CHECK_LE(table.size(),
                  static_cast<int64_t>(std::numeric_limits<uint32_t>::max()))
      << "row indexes are 32-bit";
  StreamRowIndex index;
  index.offsets.assign(static_cast<size_t>(num_streams) + 1, 0);
  for (const Arrival& a : table.arrivals) {
    AQSIOS_CHECK(a.stream >= 0 && a.stream < num_streams)
        << "arrival " << a.id << " on unknown stream " << a.stream;
    ++index.offsets[static_cast<size_t>(a.stream) + 1];
  }
  for (size_t s = 1; s < index.offsets.size(); ++s) {
    index.offsets[s] += index.offsets[s - 1];
  }
  index.rows.resize(table.arrivals.size());
  std::vector<int64_t> next(index.offsets.begin(), index.offsets.end() - 1);
  for (size_t i = 0; i < table.arrivals.size(); ++i) {
    index.rows[static_cast<size_t>(
        next[static_cast<size_t>(table.arrivals[i].stream)]++)] =
        static_cast<uint32_t>(i);
  }
  return index;
}

}  // namespace aqsios::stream
