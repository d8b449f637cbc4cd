// Seeded mutation corpus for the trace parsers: a few thousand byte flips,
// truncations and junk insertions of valid trace files, parsed from memory
// (the file readers only add the read; TraceTest covers their round trip).
// Whatever the bytes, ParseTrace and ParseTimestampColumn must return ok or
// InvalidArgument (never crash, never another code), and an ok result must
// satisfy the parser's contract. CI's ASan+UBSan job runs this through
// ctest.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stream/trace.h"

namespace aqsios::stream {
namespace {

constexpr int kMutationsPerBase = 1500;

/// Bytes that steer a parser into its corners: digits, signs, exponents,
/// hex and non-finite spellings, whitespace, line and comment breaks, NUL.
constexpr char kJunk[] = "0123456789.+-eExXinfINFnaNAN \t\r\n#,;\0\xff";

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Applies one to four random edits: flip a byte, truncate, or insert junk.
std::string Mutate(std::string text, Rng& rng) {
  const int64_t edits = rng.UniformInt(1, 4);
  for (int64_t e = 0; e < edits; ++e) {
    const int64_t size = static_cast<int64_t>(text.size());
    switch (rng.UniformInt(0, 2)) {
      case 0:
        if (size > 0) {
          const auto at = static_cast<size_t>(rng.UniformInt(0, size - 1));
          text[at] = static_cast<char>(rng.UniformInt(0, 255));
        }
        break;
      case 1:
        text.resize(static_cast<size_t>(rng.UniformInt(0, size)));
        break;
      default: {
        std::string junk;
        const int64_t length = rng.UniformInt(1, 8);
        for (int64_t i = 0; i < length; ++i) {
          junk += kJunk[rng.UniformInt(0, sizeof(kJunk) - 2)];
        }
        text.insert(static_cast<size_t>(rng.UniformInt(0, size)), junk);
        break;
      }
    }
  }
  return text;
}

bool FiniteAndNonDecreasing(const std::vector<SimTime>& timestamps) {
  for (size_t i = 0; i < timestamps.size(); ++i) {
    if (!std::isfinite(timestamps[i])) return false;
    if (i > 0 && timestamps[i] < timestamps[i - 1]) return false;
  }
  return true;
}

TEST(TraceMutationCorpusTest, ReadersReturnOkOrInvalidArgument) {
  const std::string path = testing::TempDir() + "/mutation.trace";
  // Base 1: an aqsios-trace file as WriteTrace writes it.
  ASSERT_TRUE(WriteTrace(path, GenerateOnOffTrace(OnOffConfig{}, 40, 3)).ok());
  const std::string written = ReadAll(path);
  std::remove(path.c_str());
  // Base 2: packet-trace rows, unordered, with further columns.
  const std::vector<std::string> bases = {
      written,
      "# lbl\n100.5 a b tcp 40\n100.2 c d udp 80\n101.0\te f tcp 40\n"
      "99.75 g h tcp 1500\n100.2 i j udp 40\n"};

  Rng rng(20260601);
  int trace_ok = 0;
  int trace_rejected = 0;
  int column_ok = 0;
  int column_rejected = 0;
  for (const std::string& base : bases) {
    for (int m = 0; m < kMutationsPerBase; ++m) {
      const std::string text = Mutate(base, rng);
      SCOPED_TRACE("mutation " + std::to_string(m) + ":\n" + text);

      const auto trace = ParseTrace(text);
      if (trace.ok()) {
        ++trace_ok;
        EXPECT_TRUE(FiniteAndNonDecreasing(trace.value()));
        for (const SimTime t : trace.value()) ASSERT_GE(t, 0.0);
      } else {
        ++trace_rejected;
        ASSERT_EQ(trace.status().code(), StatusCode::kInvalidArgument)
            << trace.status();
      }

      const auto column = ParseTimestampColumn(text);
      if (column.ok()) {
        ++column_ok;
        EXPECT_TRUE(FiniteAndNonDecreasing(column.value()));
        if (!column.value().empty()) {
          ASSERT_EQ(column.value().front(), 0.0);
        }
      } else {
        ++column_rejected;
        ASSERT_EQ(column.status().code(), StatusCode::kInvalidArgument)
            << column.status();
      }
    }
  }
  // The corpus reaches both outcomes of both readers.
  EXPECT_GT(trace_ok, 0);
  EXPECT_GT(trace_rejected, 0);
  EXPECT_GT(column_ok, 0);
  EXPECT_GT(column_rejected, 0);
  std::printf("ParseTrace ok %d rejected %d; ParseTimestampColumn ok %d "
              "rejected %d\n",
              trace_ok, trace_rejected, column_ok, column_rejected);
}

}  // namespace
}  // namespace aqsios::stream
