#include "scaling/rt_ttp_monitor.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace thrifty {
namespace {

// Reference oracle: keeps the full step function "active count over time"
// (no pruning, no collapsing) and sweeps every segment overlapping
// [now - window, now) for the time with count > threshold. The monitor's
// prefix-sum RtTtp must equal 1 - FractionAbove(now, r) bit for bit.
class SweepOracle {
 public:
  explicit SweepOracle(SimDuration window) : window_(window) {}

  void OnActiveCountChange(SimTime now, int count) {
    if (!segments_.empty() && segments_.back().since == now) {
      segments_.back().count = count;
    } else {
      segments_.push_back({now, count});
    }
  }

  double FractionAbove(SimTime now, int threshold) const {
    SimTime begin = now - window_;
    SimDuration above = 0;
    // Time before the first segment counts as zero active tenants (never
    // above a non-negative threshold).
    for (size_t i = 0; i < segments_.size(); ++i) {
      SimTime seg_begin = std::max(segments_[i].since, begin);
      SimTime seg_end =
          i + 1 < segments_.size() ? segments_[i + 1].since : now;
      seg_end = std::min(seg_end, now);
      if (seg_end <= seg_begin) continue;
      if (segments_[i].count > threshold) above += seg_end - seg_begin;
    }
    return static_cast<double>(above) / static_cast<double>(window_);
  }

 private:
  struct Segment {
    SimTime since;
    int count;
  };
  SimDuration window_;
  std::vector<Segment> segments_;
};

// Feeds the same change script to a monitor and the oracle.
struct Pair {
  Pair(int r, SimDuration window) : monitor(r, window), oracle(window) {}
  void Change(SimTime now, int count) {
    monitor.OnActiveCountChange(now, count);
    oracle.OnActiveCountChange(now, count);
  }
  RtTtpMonitor monitor;
  SweepOracle oracle;
};

TEST(RtTtpTest, NoActivityIsPerfect) {
  RtTtpMonitor monitor(3);
  EXPECT_DOUBLE_EQ(monitor.RtTtp(25 * kHour), 1.0);
  EXPECT_EQ(monitor.current_count(), 0);
}

TEST(RtTtpTest, CountsWithinThresholdKeepTtpAtOne) {
  RtTtpMonitor monitor(3);
  monitor.OnActiveCountChange(1 * kHour, 2);
  monitor.OnActiveCountChange(2 * kHour, 3);
  monitor.OnActiveCountChange(3 * kHour, 0);
  EXPECT_DOUBLE_EQ(monitor.RtTtp(25 * kHour), 1.0);
}

TEST(RtTtpTest, TimeAboveThresholdReducesTtp) {
  RtTtpMonitor monitor(3, 24 * kHour);
  monitor.OnActiveCountChange(0, 4);            // above R
  monitor.OnActiveCountChange(6 * kHour, 2);    // back below
  // At now = 24 h: 6 of 24 hours above -> RT-TTP = 75%.
  EXPECT_NEAR(monitor.RtTtp(24 * kHour), 0.75, 1e-9);
}

TEST(RtTtpTest, SlidingWindowForgetsOldBreaches) {
  RtTtpMonitor monitor(3, 24 * kHour);
  monitor.OnActiveCountChange(0, 5);
  monitor.OnActiveCountChange(1 * kHour, 1);
  // Breach fully inside window at t = 24 h.
  EXPECT_NEAR(monitor.RtTtp(24 * kHour), 23.0 / 24, 1e-9);
  // Half slid out at t = 24.5 h.
  EXPECT_NEAR(monitor.RtTtp(24 * kHour + 30 * kMinute), 23.5 / 24, 1e-9);
  // Fully slid out at t = 25 h.
  EXPECT_NEAR(monitor.RtTtp(25 * kHour), 1.0, 1e-9);
}

TEST(RtTtpTest, OngoingBreachCountsUpToNow) {
  RtTtpMonitor monitor(1, 10 * kHour);
  monitor.OnActiveCountChange(0, 2);
  // Still above threshold; at t = 5 h half the window (with pre-history as
  // zero) is above.
  EXPECT_NEAR(monitor.RtTtp(5 * kHour), 0.5, 1e-9);
  EXPECT_EQ(monitor.current_count(), 2);
}

TEST(RtTtpTest, FractionAboveGeneralThreshold) {
  // One monitor per threshold: RtTtp measures the fraction at or below r.
  const double expected_above[] = {0.4, 0.2, 0.0};
  for (int r = 0; r <= 2; ++r) {
    Pair pair(r, 10 * kHour);
    pair.Change(0, 1);
    pair.Change(2 * kHour, 2);
    pair.Change(4 * kHour, 0);
    SimTime now = 10 * kHour;
    EXPECT_NEAR(pair.oracle.FractionAbove(now, r), expected_above[r], 1e-9);
    EXPECT_NEAR(pair.monitor.RtTtp(now), 1.0 - expected_above[r], 1e-9);
    EXPECT_EQ(pair.monitor.RtTtp(now),
              1.0 - pair.oracle.FractionAbove(now, r));
  }
}

TEST(RtTtpTest, RedundantUpdatesCollapse) {
  Pair pair(2, 10 * kHour);
  pair.Change(1 * kHour, 3);
  pair.Change(2 * kHour, 3);  // no change
  pair.Change(3 * kHour, 1);
  EXPECT_NEAR(pair.oracle.FractionAbove(10 * kHour, 2), 0.2, 1e-9);
  EXPECT_NEAR(pair.monitor.RtTtp(10 * kHour), 0.8, 1e-9);
}

TEST(RtTtpTest, SameTimestampRewrite) {
  RtTtpMonitor monitor(2, 10 * kHour);
  monitor.OnActiveCountChange(1 * kHour, 3);
  monitor.OnActiveCountChange(1 * kHour, 1);  // transition at same instant
  EXPECT_NEAR(monitor.RtTtp(10 * kHour), 1.0, 1e-9);
  EXPECT_EQ(monitor.current_count(), 1);
}

TEST(RtTtpTest, PruningKeepsStraddlingSegment) {
  Pair pair(0, 1 * kHour);
  // A long-past segment that still covers the window start must survive.
  pair.Change(0, 1);
  for (int h = 1; h <= 50; ++h) {
    pair.Change(h * kHour, h % 2 == 0 ? 1 : 2);
  }
  // Whole window above threshold 0 regardless of pruning.
  SimTime now = 50 * kHour + 30 * kMinute;
  EXPECT_NEAR(pair.oracle.FractionAbove(now, 0), 1.0, 1e-9);
  EXPECT_EQ(pair.monitor.RtTtp(now), 0.0);
}

// One randomized script, fully determined by its case id: to replay a
// failing case, call RunPropertyCase(id) alone. Covers same-timestamp
// rewrites (including ones that collapse into the previous segment),
// no-op updates, pruning under short windows, queries long after the last
// change, and windows that start before the first segment.
void RunPropertyCase(int id) {
  SCOPED_TRACE("case " + std::to_string(id));
  Rng rng(0x77a5e000u + static_cast<uint64_t>(id));
  const int r = static_cast<int>(rng.NextInt(0, 4));
  const SimDuration windows[] = {1 * kMinute, 1 * kHour, 24 * kHour,
                                 rng.NextInt(1, 3 * kHour)};
  const SimDuration window = windows[rng.NextBounded(4)];
  Pair pair(r, window);
  // The first change may land well inside or past the first window.
  SimTime now = rng.NextInt(0, 2 * window);
  int count = 0;
  int previous = 0;
  const int ops = static_cast<int>(rng.NextInt(1, 300));
  for (int op = 0; op < ops; ++op) {
    const double u = rng.NextDouble();
    if (u < 0.15) {
      // Same-timestamp rewrite; half the time back to the count before the
      // transition, which collapses the segment away.
      count = rng.NextBool(0.5) ? previous
                                : static_cast<int>(rng.NextInt(0, 6));
    } else if (u < 0.30) {
      now += rng.NextInt(1, window / 4 + 1);  // no-op update
    } else {
      now += rng.NextInt(1, window / 4 + 1);
      previous = count;
      count = static_cast<int>(rng.NextInt(0, 6));
    }
    pair.Change(now, count);
    EXPECT_EQ(pair.monitor.current_count(), count);
    SimTime query = now;
    if (rng.NextBool(0.2)) query += rng.NextInt(1, 3 * window);
    ASSERT_EQ(pair.monitor.RtTtp(query),
              1.0 - pair.oracle.FractionAbove(query, r))
        << "op " << op << " query " << query;
  }
  // Long after the last change the window holds only the final count.
  SimTime late = now + rng.NextInt(window, 10 * window);
  EXPECT_EQ(pair.monitor.RtTtp(late), 1.0 - pair.oracle.FractionAbove(late, r));
  EXPECT_EQ(pair.monitor.RtTtp(late), count > r ? 0.0 : 1.0);
}

TEST(RtTtpTest, PrefixSumMatchesSweepOracle) {
  for (int id = 0; id < 500; ++id) RunPropertyCase(id);
}

TEST(RtTtpTest, ThePaper43MinuteGracePeriodExample) {
  // §5.1: at P = 99.9%, one month gives ~43 minutes of grace period.
  double month_ms = 30.0 * kDay;
  double grace_minutes = month_ms * 0.001 / kMinute;
  EXPECT_NEAR(grace_minutes, 43.2, 0.5);
}

}  // namespace
}  // namespace thrifty
