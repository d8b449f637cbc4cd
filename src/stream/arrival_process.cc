#include "stream/arrival_process.h"

#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

namespace aqsios::stream {

PoissonArrivalProcess::PoissonArrivalProcess(double rate, uint64_t seed)
    : rate_(rate), rng_(seed) {
  AQSIOS_CHECK_GT(rate, 0.0);
}

SimTime PoissonArrivalProcess::NextArrivalTime() {
  now_ += rng_.Exponential(rate_);
  return now_;
}

DeterministicArrivalProcess::DeterministicArrivalProcess(SimTime interval,
                                                         SimTime start)
    : interval_(interval), next_(start) {
  AQSIOS_CHECK_GT(interval, 0.0);
}

SimTime DeterministicArrivalProcess::NextArrivalTime() {
  const SimTime t = next_;
  next_ += interval_;
  return t;
}

OnOffArrivalProcess::OnOffArrivalProcess(const OnOffConfig& config,
                                         uint64_t seed)
    : config_(config), rng_(seed) {
  AQSIOS_CHECK_GT(config.on_rate, 0.0);
  AQSIOS_CHECK_GT(config.mean_on_duration, 0.0);
  AQSIOS_CHECK_GT(config.mean_off_duration, 0.0);
}

SimTime OnOffArrivalProcess::NextArrivalTime() {
  while (true) {
    if (!in_on_period_) {
      // Enter the next ON period after an exponential OFF sojourn.
      now_ += rng_.Exponential(1.0 / config_.mean_off_duration);
      on_period_end_ = now_ + rng_.Exponential(1.0 / config_.mean_on_duration);
      in_on_period_ = true;
    }
    const SimTime candidate = now_ + rng_.Exponential(config_.on_rate);
    if (candidate <= on_period_end_) {
      now_ = candidate;
      return now_;
    }
    // ON period expired before the candidate arrival: move to its end and
    // fall into the OFF branch.
    now_ = on_period_end_;
    in_on_period_ = false;
  }
}

TraceArrivalProcess::TraceArrivalProcess(std::vector<SimTime> timestamps)
    : timestamps_(std::move(timestamps)) {
  for (size_t i = 1; i < timestamps_.size(); ++i) {
    AQSIOS_CHECK_GE(timestamps_[i], timestamps_[i - 1])
        << "trace timestamps must be non-decreasing (index " << i << ")";
  }
}

SimTime TraceArrivalProcess::NextArrivalTime() {
  if (next_index_ >= static_cast<int64_t>(timestamps_.size())) {
    return std::numeric_limits<SimTime>::infinity();
  }
  return timestamps_[static_cast<size_t>(next_index_++)];
}

std::vector<Arrival> GenerateArrivals(ArrivalProcess& process, StreamId stream,
                                      int64_t count, uint64_t seed,
                                      int32_t num_join_keys) {
  AQSIOS_CHECK_GE(count, 0);
  AQSIOS_CHECK_GT(num_join_keys, 0);
  Rng rng(seed);
  std::vector<Arrival> result;
  result.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    Arrival a;
    a.stream = stream;
    a.time = process.NextArrivalTime();
    if (a.time == std::numeric_limits<SimTime>::infinity()) break;
    // (0, 100]: matches the paper's uniform [1,100] attribute while keeping
    // "attribute <= selectivity * 100" an exact selectivity realization.
    a.attribute = 100.0 - rng.Uniform(0.0, 100.0);
    a.join_key = static_cast<int32_t>(rng.UniformInt(0, num_join_keys - 1));
    result.push_back(a);
  }
  return result;
}

ArrivalTable MergeArrivalTables(std::vector<std::vector<Arrival>> per_stream) {
  constexpr SimTime kExhausted = std::numeric_limits<SimTime>::infinity();
  ArrivalTable table;
  if (per_stream.size() == 1) {
    table.arrivals = std::move(per_stream.front());
    SimTime previous = -kExhausted;
    for (size_t i = 0; i < table.arrivals.size(); ++i) {
      Arrival& a = table.arrivals[i];
      AQSIOS_CHECK(std::isfinite(a.time) && a.time >= previous)
          << "run 0 is not non-decreasing and finite at position " << i;
      previous = a.time;
      a.id = static_cast<ArrivalId>(i);
    }
    return table;
  }
  size_t total = 0;
  for (const auto& run : per_stream) total += run.size();
  table.arrivals.reserve(total);
  if (per_stream.empty()) return table;

  // Tournament tree over the run heads. Leaf r (of `width`, a power of two)
  // holds run r's head time; an exhausted or padding leaf holds +infinity,
  // which the precondition makes later than every real time. Internal node
  // n in [1, width) holds the run that lost the match played there, and
  // `winner` the run whose head is next in the table.
  const size_t runs = per_stream.size();
  size_t width = 1;
  while (width < runs) width *= 2;
  std::vector<SimTime> head(width, kExhausted);
  std::vector<size_t> cursor(runs, 0);
  // Loads run r's head at its cursor, checking it against the previous head.
  auto load = [&](size_t r) {
    const std::vector<Arrival>& run = per_stream[r];
    if (cursor[r] == run.size()) {
      head[r] = kExhausted;
      return;
    }
    const SimTime t = run[cursor[r]].time;
    AQSIOS_CHECK(std::isfinite(t) && t >= head[r])
        << "run " << r << " is not non-decreasing and finite at position "
        << cursor[r];
    head[r] = t;
  };
  // Whether run a's head goes before run b's: earlier time, then lower run.
  auto before = [&](size_t a, size_t b) {
    return head[a] < head[b] || (head[a] == head[b] && a < b);
  };
  for (size_t r = 0; r < runs; ++r) {
    head[r] = -kExhausted;
    load(r);
  }

  std::vector<size_t> loser(width);
  std::vector<size_t> winners(2 * width);
  for (size_t r = 0; r < width; ++r) winners[width + r] = r;
  for (size_t n = width - 1; n >= 1; --n) {
    size_t a = winners[2 * n];
    size_t b = winners[2 * n + 1];
    if (before(b, a)) std::swap(a, b);
    winners[n] = a;
    loser[n] = b;
  }
  size_t winner = winners[1];

  for (size_t out = 0; out < total; ++out) {
    Arrival a = per_stream[winner][cursor[winner]];
    a.id = static_cast<ArrivalId>(out);
    table.arrivals.push_back(a);
    ++cursor[winner];
    load(winner);
    // Replay the winner's leaf-to-root path against the stored losers.
    for (size_t n = (width + winner) / 2; n >= 1; n /= 2) {
      if (before(loser[n], winner)) std::swap(loser[n], winner);
    }
  }
  return table;
}

}  // namespace aqsios::stream
