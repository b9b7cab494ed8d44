// Run-time TTP (RT-TTP) tracking (§5.1).
//
// At run time a tenant-group's activity may deviate from history. The
// Tenant Activity Monitor watches, per group, the step function "number of
// concurrently active tenants" over a sliding window (the paper uses 24
// hours) and computes the RT-TTP: the fraction of that window during which
// at most R tenants were active. When RT-TTP drops below the SLA guarantee
// P, elastic scaling takes action.

#ifndef THRIFTY_SCALING_RT_TTP_MONITOR_H_
#define THRIFTY_SCALING_RT_TTP_MONITOR_H_

#include <deque>

#include "common/sim_time.h"

namespace thrifty {

/// \brief Sliding-window RT-TTP of one tenant-group.
///
/// Time before the first recorded change counts as zero active tenants.
///
/// Cost model: one segment per count change in the window, each carrying
/// the time above R accumulated before it, so RtTtp is O(log n) (two binary
/// searches: A(now) - A(now - window)) and OnActiveCountChange amortized
/// O(1). The integer difference equals a sweep over the window's segments,
/// so the result is bit-identical to one.
class RtTtpMonitor {
 public:
  /// \param r replication factor (the count threshold).
  /// \param window sliding window length (default 24 h).
  explicit RtTtpMonitor(int r, SimDuration window = 24 * kHour);

  int r() const { return r_; }
  SimDuration window() const { return window_; }

  /// \brief Records that the group's active-tenant count changed at `now`.
  ///
  /// Calls must be in non-decreasing time order.
  void OnActiveCountChange(SimTime now, int count);

  /// \brief Active-tenant count right now.
  int current_count() const;

  /// \brief Fraction of [now - window, now) with count <= r. Returns 1 for
  /// an empty window (now <= 0 history counts as inactive).
  double RtTtp(SimTime now) const;

 private:
  struct Segment {
    SimTime since;
    int count;
    /// Time with count > r accumulated before `since`.
    SimDuration above_before;
  };

  /// \brief A(t): time with count > r up to `t`, flat before the first
  /// held segment. AboveAt is A(t) for `t` within `seg`.
  SimDuration AboveUntil(SimTime t) const;
  SimDuration AboveAt(const Segment& seg, SimTime t) const {
    return seg.above_before + (seg.count > r_ ? t - seg.since : 0);
  }

  /// \brief Drops segments that ended before `horizon` (keeps the one
  /// straddling it).
  void Prune(SimTime horizon);

  int r_;
  SimDuration window_;
  std::deque<Segment> segments_;
};

}  // namespace thrifty

#endif  // THRIFTY_SCALING_RT_TTP_MONITOR_H_
