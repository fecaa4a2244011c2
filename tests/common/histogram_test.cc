#include "common/histogram.h"

#include <gtest/gtest.h>

namespace kafkadirect {
namespace {

TEST(HistogramTest, EmptyReportsZeros) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
  EXPECT_EQ(h.Median(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int64_t v : {10, 20, 30, 40, 50}) h.Add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.Min(), 10);
  EXPECT_EQ(h.Max(), 50);
  EXPECT_EQ(h.Median(), 30);
  EXPECT_DOUBLE_EQ(h.Mean(), 30.0);
}

TEST(HistogramTest, PercentileNearestRank) {
  Histogram h;
  for (int64_t v = 1; v <= 100; v++) h.Add(v);
  EXPECT_EQ(h.Percentile(50), 50);
  EXPECT_EQ(h.Percentile(99), 99);
  EXPECT_EQ(h.Percentile(100), 100);
  EXPECT_EQ(h.Percentile(0), 1);
  EXPECT_EQ(h.Percentile(1), 1);
}

TEST(HistogramTest, UnsortedInsertOrder) {
  Histogram h;
  for (int64_t v : {50, 10, 40, 30, 20}) h.Add(v);
  EXPECT_EQ(h.Min(), 10);
  EXPECT_EQ(h.Median(), 30);
  EXPECT_EQ(h.Max(), 50);
}

TEST(HistogramTest, AddAfterQueryResorts) {
  Histogram h;
  h.Add(5);
  EXPECT_EQ(h.Max(), 5);
  h.Add(100);
  h.Add(1);
  EXPECT_EQ(h.Min(), 1);
  EXPECT_EQ(h.Max(), 100);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.Add(1);
  h.Clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.Median(), 0);
}

}  // namespace
}  // namespace kafkadirect
