#include "stream/trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iterator>
#include <string_view>

namespace aqsios::stream {

namespace {

constexpr char kTraceHeader[] = "# aqsios-trace v1";

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Parses the first whitespace-separated field of `line` as a finite decimal
/// number (std::from_chars syntax: no '+' sign, no hex). Text stuck to the
/// number is malformed; so are further fields unless `more_fields` allows
/// them. Returns nullptr on success, else why the line is malformed.
const char* ParseTimestamp(std::string_view line, bool more_fields,
                           SimTime* t) {
  size_t begin = 0;
  while (begin < line.size() && IsSpace(line[begin])) ++begin;
  const char* first = line.data() + begin;
  const char* last = line.data() + line.size();
  const auto [end, error] = std::from_chars(first, last, *t);
  if (error == std::errc::result_out_of_range) return "out of range";
  if (error != std::errc() || end == first) return "not a number";
  if (end != last && !IsSpace(*end)) return "text stuck to the number";
  if (!more_fields && !std::all_of(end, last, IsSpace)) {
    return "text after the number";
  }
  if (!std::isfinite(*t)) return "not finite";
  return nullptr;
}

Status BadTimestamp(const std::string& source, int64_t line_number,
                    const char* why) {
  return Status::InvalidArgument("bad timestamp at " + source + ":" +
                                 std::to_string(line_number) + ": " + why);
}

/// Calls `visit(line_number, line)` for every line of `text` that is not
/// empty and not a '#' comment; stops at the first non-ok Status.
template <typename Visit>
Status ForEachDataLine(std::string_view text, Visit&& visit) {
  int64_t line_number = 0;
  while (!text.empty()) {
    const size_t end = text.find('\n');
    const std::string_view line = text.substr(0, end);
    text.remove_prefix(end == std::string_view::npos ? text.size() : end + 1);
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    Status status = visit(line_number, line);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open trace file: " + path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

}  // namespace

std::vector<SimTime> GenerateOnOffTrace(const OnOffConfig& config,
                                        int64_t count, uint64_t seed) {
  OnOffArrivalProcess process(config, seed);
  std::vector<SimTime> timestamps;
  timestamps.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    timestamps.push_back(process.NextArrivalTime());
  }
  return timestamps;
}

Status WriteTrace(const std::string& path,
                  const std::vector<SimTime>& timestamps) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open trace file for writing: " + path);
  }
  out << kTraceHeader << "\n";
  out << "# count=" << timestamps.size() << "\n";
  out.precision(12);
  for (SimTime t : timestamps) {
    out << t << "\n";
  }
  if (!out) {
    return Status::IoError("write failure on trace file: " + path);
  }
  return Status::Ok();
}

StatusOr<std::vector<SimTime>> ParseTrace(std::string_view text,
                                          const std::string& source) {
  std::vector<SimTime> timestamps;
  const Status status = ForEachDataLine(
      text, [&](int64_t line_number, std::string_view line) {
        SimTime t = 0.0;
        const char* why = ParseTimestamp(line, /*more_fields=*/false, &t);
        if (why == nullptr && t < 0.0) why = "negative";
        if (why != nullptr) return BadTimestamp(source, line_number, why);
        if (!timestamps.empty() && t < timestamps.back()) {
          return Status::InvalidArgument("decreasing timestamp at " + source +
                                         ":" + std::to_string(line_number));
        }
        timestamps.push_back(t);
        return Status::Ok();
      });
  if (!status.ok()) return status;
  return timestamps;
}

StatusOr<std::vector<SimTime>> ParseTimestampColumn(
    std::string_view text, const std::string& source) {
  std::vector<SimTime> timestamps;
  const Status status = ForEachDataLine(
      text, [&](int64_t line_number, std::string_view line) {
        SimTime t = 0.0;
        const char* why = ParseTimestamp(line, /*more_fields=*/true, &t);
        if (why != nullptr) return BadTimestamp(source, line_number, why);
        timestamps.push_back(t);
        return Status::Ok();
      });
  if (!status.ok()) return status;
  if (timestamps.empty()) return timestamps;
  // Packet traces may interleave several flows; enforce global time order and
  // rebase to zero.
  std::sort(timestamps.begin(), timestamps.end());
  const SimTime base = timestamps.front();
  if (!std::isfinite(timestamps.back() - base)) {
    return Status::InvalidArgument("timestamp range of " + source +
                                   " overflows a double");
  }
  for (SimTime& t : timestamps) t -= base;
  return timestamps;
}

StatusOr<std::vector<SimTime>> ReadTrace(const std::string& path) {
  StatusOr<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseTrace(text.value(), path);
}

StatusOr<std::vector<SimTime>> ReadTimestampColumn(const std::string& path) {
  StatusOr<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseTimestampColumn(text.value(), path);
}

TraceStats ComputeTraceStats(const std::vector<SimTime>& timestamps) {
  TraceStats stats;
  stats.count = static_cast<int64_t>(timestamps.size());
  if (timestamps.size() < 2) return stats;
  stats.duration = timestamps.back() - timestamps.front();
  const int64_t gaps = stats.count - 1;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (size_t i = 1; i < timestamps.size(); ++i) {
    const double gap = timestamps[i] - timestamps[i - 1];
    sum += gap;
    sum_sq += gap * gap;
    stats.max_inter_arrival = std::max(stats.max_inter_arrival, gap);
  }
  stats.mean_inter_arrival = sum / static_cast<double>(gaps);
  const double mean = stats.mean_inter_arrival;
  const double variance =
      std::max(0.0, sum_sq / static_cast<double>(gaps) - mean * mean);
  stats.inter_arrival_cv = mean > 0.0 ? std::sqrt(variance) / mean : 0.0;
  return stats;
}

}  // namespace aqsios::stream
