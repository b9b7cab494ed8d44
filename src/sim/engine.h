// The discrete-event simulation engine driving all Thrifty experiments.

#ifndef THRIFTY_SIM_ENGINE_H_
#define THRIFTY_SIM_ENGINE_H_

#include <cstddef>

#include "common/status.h"
#include "sim/cost_gauge.h"
#include "sim/event_queue.h"

namespace thrifty {

/// \brief Deterministic discrete-event simulator.
///
/// Components schedule callbacks at absolute or relative simulated times; the
/// engine fires them in (time, scheduling-order) order. The simulated clock
/// only moves when Run*/Step are called.
class SimEngine {
 public:
  /// \brief Current simulated time.
  SimTime now() const { return now_; }

  /// \brief Schedules `cb` at absolute time `t` (must be >= now()).
  EventId ScheduleAt(SimTime t, EventCallback cb);

  /// \brief Schedules `cb` after `delay` (must be >= 0).
  EventId ScheduleAfter(SimDuration delay, EventCallback cb);

  /// \brief Cancels a scheduled event (no-op if already fired).
  void Cancel(EventId id) { queue_.Cancel(id); }

  /// \brief Fires the next event, if any; returns false when the queue is
  /// empty.
  bool Step();

  /// \brief Runs until no events remain.
  void Run();

  /// \brief Runs events with time <= deadline, then advances the clock to
  /// exactly `deadline`. Later events stay queued.
  void RunUntil(SimTime deadline);

  /// \brief Number of events fired so far.
  size_t events_processed() const { return events_processed_; }

  /// \brief Number of pending events.
  size_t events_pending() const { return queue_.LiveCount(); }

  /// \brief Attaches a per-event cost gauge; every MppdbInstance driven by
  /// this engine charges its executor work to it. Pass nullptr to detach.
  /// The gauge must outlive the engine's use of it.
  void set_cost_gauge(SimCostGauge* gauge) { cost_gauge_ = gauge; }
  SimCostGauge* cost_gauge() const { return cost_gauge_; }

 private:
  /// \brief Fires the earliest event due by `deadline`, if any.
  bool FireNext(SimTime deadline);

  SimTime now_ = 0;
  EventQueue queue_;
  size_t events_processed_ = 0;
  SimCostGauge* cost_gauge_ = nullptr;
};

}  // namespace thrifty

#endif  // THRIFTY_SIM_ENGINE_H_
