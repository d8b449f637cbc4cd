#include "stream/trace.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace aqsios::stream {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(TraceTest, GenerateOnOffTraceCountAndOrder) {
  OnOffConfig config;
  const auto trace = GenerateOnOffTrace(config, 5000, /*seed=*/4);
  ASSERT_EQ(trace.size(), 5000u);
  for (size_t i = 1; i < trace.size(); ++i) {
    ASSERT_GE(trace[i], trace[i - 1]);
  }
}

TEST(TraceTest, WriteReadRoundTrip) {
  OnOffConfig config;
  const auto trace = GenerateOnOffTrace(config, 1000, 8);
  const std::string path = TempPath("roundtrip.trace");
  ASSERT_TRUE(WriteTrace(path, trace).ok());
  const auto read = ReadTrace(path);
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(read.value().size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_NEAR(read.value()[i], trace[i], 1e-9);
  }
  std::remove(path.c_str());
}

TEST(TraceTest, ReadMissingFileIsNotFound) {
  const auto result = ReadTrace("/nonexistent/definitely/missing.trace");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(TraceTest, ReadRejectsDecreasingTimestamps) {
  const std::string path = TempPath("decreasing.trace");
  {
    std::ofstream out(path);
    out << "# aqsios-trace v1\n1.0\n0.5\n";
  }
  const auto result = ReadTrace(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(TraceTest, ReadRejectsGarbage) {
  const std::string path = TempPath("garbage.trace");
  {
    std::ofstream out(path);
    out << "not-a-number\n";
  }
  EXPECT_FALSE(ReadTrace(path).ok());
  std::remove(path.c_str());
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

TEST(TraceTest, ReadRejectsMalformedTimestamps) {
  const std::string path = TempPath("malformed.trace");
  // Each bad line follows a header and a good line, so it is line 3.
  for (const char* bad : {"-1", "1.5abc", "0x10", "3 4", "inf", "nan", "-inf",
                          "1e400", "1e-3e0", "+1", "1.5 # note", " "}) {
    SCOPED_TRACE(bad);
    WriteFile(path, std::string("# aqsios-trace v1\n0.5\n") + bad + "\n");
    const auto result = ReadTrace(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("bad timestamp at " + path +
                                             ":3"),
              std::string::npos)
        << result.status();
  }
  std::remove(path.c_str());
}

TEST(TraceTest, ReadAcceptsSurroundingWhitespaceAndExponents) {
  const std::string path = TempPath("spaced.trace");
  WriteFile(path, "# aqsios-trace v1\n\n  0.5\t\r\n1.25e1 \n");
  const auto result = ReadTrace(path);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result.value().size(), 2u);
  EXPECT_EQ(result.value()[0], 0.5);
  EXPECT_EQ(result.value()[1], 12.5);
  std::remove(path.c_str());
}

TEST(TraceTest, ReadTimestampColumnRejectsTextStuckToTheFirstColumn) {
  const std::string path = TempPath("lbl_malformed.trace");
  for (const char* bad :
       {"0x10 a b", "100.5abc c d", "100.5,c d", "nan a", "inf a", "x 1"}) {
    SCOPED_TRACE(bad);
    WriteFile(path, std::string("100.2 a b\n") + bad + "\n");
    const auto result = ReadTimestampColumn(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("bad timestamp at " + path +
                                             ":2"),
              std::string::npos)
        << result.status();
  }
  // Further columns, separated by any whitespace, are still ignored.
  WriteFile(path, "100.5\tc d\n100.2 a\tb 40\r\n101.0\n");
  const auto result = ReadTimestampColumn(path);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result.value().size(), 3u);
  EXPECT_NEAR(result.value()[1], 0.3, 1e-9);
  std::remove(path.c_str());
}

TEST(TraceTest, ReadTimestampColumnRejectsOverflowingRange) {
  const std::string path = TempPath("lbl_range.trace");
  WriteFile(path, "-1.7e308 a\n1.7e308 b\n");
  const auto result = ReadTimestampColumn(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(TraceTest, ReadTimestampColumnSortsAndRebases) {
  const std::string path = TempPath("lbl.trace");
  {
    std::ofstream out(path);
    // LBL-style lines: "timestamp src dst proto len", unordered.
    out << "# comment\n";
    out << "100.5 a b tcp 40\n";
    out << "100.2 c d udp 80\n";
    out << "101.0 e f tcp 40\n";
  }
  const auto result = ReadTimestampColumn(path);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto& ts = result.value();
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_NEAR(ts[0], 0.0, 1e-9);
  EXPECT_NEAR(ts[1], 0.3, 1e-9);
  EXPECT_NEAR(ts[2], 0.8, 1e-9);
  std::remove(path.c_str());
}

TEST(TraceTest, StatsOfDeterministicTrace) {
  std::vector<SimTime> trace;
  for (int i = 0; i < 101; ++i) trace.push_back(i * 0.25);
  const TraceStats stats = ComputeTraceStats(trace);
  EXPECT_EQ(stats.count, 101);
  EXPECT_NEAR(stats.duration, 25.0, 1e-9);
  EXPECT_NEAR(stats.mean_inter_arrival, 0.25, 1e-9);
  EXPECT_NEAR(stats.inter_arrival_cv, 0.0, 1e-9);
  EXPECT_NEAR(stats.max_inter_arrival, 0.25, 1e-9);
}

TEST(TraceTest, OnOffTraceIsBursty) {
  OnOffConfig config;
  config.on_rate = 5000.0;
  config.mean_on_duration = 0.05;
  config.mean_off_duration = 0.2;
  const auto trace = GenerateOnOffTrace(config, 50000, 21);
  const TraceStats stats = ComputeTraceStats(trace);
  // On/Off traffic: inter-arrival CV well above the Poisson value of 1.
  EXPECT_GT(stats.inter_arrival_cv, 1.5);
}

TEST(TraceTest, StatsDegenerate) {
  EXPECT_EQ(ComputeTraceStats({}).count, 0);
  EXPECT_EQ(ComputeTraceStats({1.0}).count, 1);
  EXPECT_DOUBLE_EQ(ComputeTraceStats({1.0}).mean_inter_arrival, 0.0);
}

}  // namespace
}  // namespace aqsios::stream
