// Unit tests of the benchmark's measurement helpers.

#include "bench_stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // n, n-1, ..., 1 (unsorted input on purpose)
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile(Ramp(100), 0.5), 50);
  EXPECT_EQ(Percentile(Ramp(100), 0.9), 90);
  EXPECT_EQ(Percentile(Ramp(101), 0.5), 51);
  EXPECT_EQ(Percentile(Ramp(1), 0.99), 1);
  EXPECT_EQ(Percentile(Ramp(10), 0.0), 1);
  EXPECT_EQ(Percentile(Ramp(10), 1.0), 10);
  EXPECT_TRUE(std::isnan(Percentile({}, 0.5)));
}

TEST(TailQuantileTest, KeepsTenSamplesBeyond) {
  // p90 of 100 samples is rank 90: exactly 10 samples lie beyond it.
  EXPECT_EQ(TailQuantile(100), 0.9);
  // 99 samples: p90 is rank 90 (ceil 89.1), only 9 beyond.
  EXPECT_EQ(TailQuantile(99), std::nullopt);
  EXPECT_EQ(TailQuantile(999), 0.9);
  EXPECT_EQ(TailQuantile(1000), 0.99);
  EXPECT_EQ(TailQuantile(10000), 0.999);
  EXPECT_EQ(TailQuantile(1'200'000), 0.9999);
  EXPECT_EQ(TailQuantile(0), std::nullopt);
  for (size_t n : {100u, 150u, 1000u, 54321u}) {
    double q = *TailQuantile(n);
    EXPECT_GE(n - 1 - NearestRankIndex(n, q), 10u) << n;
  }
}

TEST(SelfTimeTest, NestedChildren) {
  // root [0,10) has children [1,3) and [2,6) (overlapping, counted once) and
  // [8,12) sticking out (clipped to [8,10)); [2,6) has a child [3,4).
  std::vector<Span> spans = {
      {"root", 0, 10, -1}, {"a", 1, 3, 0}, {"b", 2, 6, 0},
      {"c", 8, 12, 0},     {"d", 3, 4, 2},
  };
  std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10 - (5 + 2));  // covered [1,6) and [8,10)
  EXPECT_DOUBLE_EQ(self[1], 2);
  EXPECT_DOUBLE_EQ(self[2], 4 - 1);
  EXPECT_DOUBLE_EQ(self[3], 4);
  EXPECT_DOUBLE_EQ(self[4], 1);

  auto totals = TotalsByName(spans);
  EXPECT_EQ(totals["root"].count, 1u);
  EXPECT_DOUBLE_EQ(totals["b"].total_s, 4);
  EXPECT_DOUBLE_EQ(totals["b"].self_s, 3);
}

TEST(SelfTimeTest, RecorderNestsScopedSpans) {
  SpanRecorder recorder;
  {
    ScopedSpan outer(&recorder, "outer");
    { ScopedSpan inner(&recorder, "inner"); }
    { ScopedSpan inner(&recorder, "inner"); }
  }
  { ScopedSpan untraced(nullptr, "ignored"); }
  const auto& spans = recorder.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  for (const Span& s : spans) EXPECT_LE(s.start, s.end);
  std::vector<double> self = SelfTimes(spans);
  EXPECT_NEAR(self[0],
              spans[0].Duration() - spans[1].Duration() - spans[2].Duration(),
              1e-12);
}

TEST(MetricNameTest, Validation) {
  EXPECT_TRUE(ValidMetricName("setup_s"));
  EXPECT_TRUE(ValidMetricName("placement.solve_s_jobs2"));
  EXPECT_TRUE(ValidMetricName("9lives-x.y"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/name"));
  EXPECT_FALSE(ValidMetricName("quote\""));
}

}  // namespace
}  // namespace perfbench
