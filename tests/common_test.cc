#include <gtest/gtest.h>

#include <cmath>

#include <fstream>

#include "common/csv_writer.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "common/types.h"

namespace ecldb {
namespace {

TEST(TimeTest, Conversions) {
  EXPECT_EQ(Micros(1), 1000);
  EXPECT_EQ(Millis(1), 1'000'000);
  EXPECT_EQ(Seconds(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(ToMillis(Millis(5)), 5.0);
  EXPECT_EQ(FromSeconds(1.5), Millis(1500));
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 28);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    const int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  StreamingStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  StreamingStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.NextExponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(RngTest, BoolProbability) {
  Rng rng(15);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.02);
}

TEST(ZipfTest, UniformWhenThetaZero) {
  ZipfGenerator zipf(100, 0.0, 3);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Next()];
  for (int c : counts) EXPECT_GT(c, 500);
}

TEST(ZipfTest, SkewedFavorsSmallKeys) {
  ZipfGenerator zipf(1000, 0.9, 3);
  int64_t low = 0, total = 100000;
  for (int i = 0; i < total; ++i) {
    const uint64_t v = zipf.Next();
    EXPECT_LT(v, 1000u);
    if (v < 10) ++low;
  }
  // Under theta=0.9 the 1% hottest keys draw a large share.
  EXPECT_GT(low, total / 5);
}

TEST(StreamingStatsTest, Moments) {
  StreamingStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStatsTest, ResetClears) {
  StreamingStats s;
  s.Add(1.0);
  s.Reset();
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(PercentileTrackerTest, Percentiles) {
  PercentileTracker t;
  for (int i = 1; i <= 100; ++i) t.Add(i);
  EXPECT_NEAR(t.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(t.Percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(t.Percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(t.Percentile(99), 99.01, 0.1);
  EXPECT_DOUBLE_EQ(t.Mean(), 50.5);
  EXPECT_DOUBLE_EQ(t.Max(), 100.0);
  EXPECT_DOUBLE_EQ(t.FractionAbove(90.0), 0.10);
}

TEST(PercentileTrackerTest, EmptyIsZero) {
  PercentileTracker t;
  EXPECT_DOUBLE_EQ(t.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(t.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(t.FractionAbove(0.0), 0.0);
}

TEST(SlidingWindowTest, EvictsOldSamples) {
  SlidingWindow w(Seconds(10));
  w.Add(Seconds(0), 1.0);
  w.Add(Seconds(5), 2.0);
  w.Add(Seconds(20), 3.0);  // evicts everything older than t=10
  EXPECT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w.Mean(), 3.0);
}

TEST(SlidingWindowTest, SlopeEstimatesTrend) {
  SlidingWindow w(Seconds(100));
  // value = 2 * t + 1
  for (int t = 0; t <= 10; ++t) w.Add(Seconds(t), 2.0 * t + 1.0);
  EXPECT_NEAR(w.SlopePerSecond(), 2.0, 1e-9);
}

TEST(SlidingWindowTest, FlatSeriesZeroSlope) {
  SlidingWindow w(Seconds(100));
  for (int t = 0; t < 5; ++t) w.Add(Seconds(t), 7.0);
  EXPECT_NEAR(w.SlopePerSecond(), 0.0, 1e-9);
}

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "23456"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(FmtInt(1234567), "1,234,567");
  EXPECT_EQ(FmtInt(-1000), "-1,000");
  EXPECT_EQ(FmtInt(12), "12");
}


TEST(CsvWriterTest, WritesHeaderAndRows) {
  const std::string path = "/tmp/ecldb_csv_test/out.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    ASSERT_TRUE(csv.ok());
    csv.AddRow({"x", "hello, \"world\""});
    csv.AddNumericRow({1.5, 2.0});
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "a,b");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "x,\"hello, \"\"world\"\"\"");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "1.5,2");
  EXPECT_FALSE(std::getline(in, line));
}

TEST(CsvWriterTest, CreatesNestedDirectories) {
  const std::string path = "/tmp/ecldb_csv_test/nested/deeper/out.csv";
  CsvWriter csv(path, {"h"});
  EXPECT_TRUE(csv.ok());
}

}  // namespace
}  // namespace ecldb
