// Trace file I/O and the synthetic LBL-style trace generator.
//
// The paper's single-stream experiments replay the LBL-PKT-4 packet trace
// (an hour of wide-area traffic). That trace is not redistributable here, so
// GenerateOnOffTrace produces a synthetic stand-in with the same relevant
// property — bursty On/Off arrivals — using the MMPP process of
// stream/arrival_process.h. Traces round-trip through a plain text format so
// experiments can also be run against *real* trace timestamps if available:
//
//   # aqsios-trace v1
//   # any number of comment lines (a '#' in the first column)
//   <timestamp-seconds> per line, non-decreasing
//
// A timestamp line holds one finite, non-negative decimal number (as
// std::from_chars reads it: no '+' sign, no hex) and optional surrounding
// whitespace; empty lines are skipped. A real LBL-PKT-4 file
// (whitespace-separated "timestamp ..." lines) can be converted with
// ReadTimestampColumn. Both readers return InvalidArgument naming the line
// of the first malformed one. The parsers (ParseTrace, ParseTimestampColumn)
// take the text itself; the readers read a file and parse its bytes.

#ifndef AQSIOS_STREAM_TRACE_H_
#define AQSIOS_STREAM_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "stream/arrival_process.h"

namespace aqsios::stream {

/// Generates `count` bursty On/Off arrival timestamps (see OnOffConfig).
std::vector<SimTime> GenerateOnOffTrace(const OnOffConfig& config,
                                        int64_t count, uint64_t seed);

/// Writes timestamps in the aqsios-trace text format.
Status WriteTrace(const std::string& path,
                  const std::vector<SimTime>& timestamps);

/// Parses aqsios-trace text. Fails with InvalidArgument on a line that is
/// not exactly one finite, non-negative number, or if timestamps decrease;
/// the message names the line as `source`:<line>.
StatusOr<std::vector<SimTime>> ParseTrace(std::string_view text,
                                          const std::string& source = "trace");

/// Reads an aqsios-trace file (ParseTrace of its bytes); NotFound if the
/// file cannot be opened.
StatusOr<std::vector<SimTime>> ReadTrace(const std::string& path);

/// Parses the first whitespace-separated column of every non-comment line as
/// a timestamp (e.g. an ita.ee.lbl.gov packet trace). Further columns are
/// ignored, but the first must be a finite number with no text stuck to it.
/// Timestamps are sorted and shifted so the first arrival is at 0.
StatusOr<std::vector<SimTime>> ParseTimestampColumn(
    std::string_view text, const std::string& source = "trace");

/// ParseTimestampColumn of a file's bytes; NotFound if it cannot be opened.
StatusOr<std::vector<SimTime>> ReadTimestampColumn(const std::string& path);

/// Summary statistics of a trace, used to characterize burstiness.
struct TraceStats {
  int64_t count = 0;
  SimTime duration = 0.0;
  SimTime mean_inter_arrival = 0.0;
  /// Coefficient of variation of inter-arrival times (1 for Poisson; On/Off
  /// traffic is substantially above 1).
  double inter_arrival_cv = 0.0;
  double max_inter_arrival = 0.0;
};

TraceStats ComputeTraceStats(const std::vector<SimTime>& timestamps);

}  // namespace aqsios::stream

#endif  // AQSIOS_STREAM_TRACE_H_
