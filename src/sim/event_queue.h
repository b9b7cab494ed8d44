// Cancellable priority event queue for the discrete-event engine.

#ifndef THRIFTY_SIM_EVENT_QUEUE_H_
#define THRIFTY_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/sim_time.h"

namespace thrifty {

/// \brief Handle identifying a scheduled event (for cancellation).
using EventId = uint64_t;

inline constexpr EventId kInvalidEventId = 0;

/// \brief Callback invoked when an event fires; receives the firing time.
using EventCallback = std::function<void(SimTime)>;

/// \brief Time-ordered queue of cancellable events.
///
/// Events at equal times fire in scheduling order (FIFO by sequence number),
/// which makes simulation runs fully deterministic. Callbacks live in a slot
/// table recycled through a free list; the heap holds 24-byte POD entries
/// {time, seq, slot, generation}. An EventId is (generation << 32) |
/// (slot + 1), never kInvalidEventId. Firing or cancelling an event frees
/// its slot and bumps the slot's generation, so Cancel is an O(1)
/// generation check, an id whose slot was since re-used cannot touch the new
/// occupant, and the event's heap entry turns stale. Stale entries are
/// skipped at pop time, and the heap is compacted once they number >= 64
/// and outnumber live events, so long runs that schedule and cancel
/// far-future events stay bounded in memory.
class EventQueue {
 public:
  /// \brief Schedules `cb` at absolute time `t`; returns a cancellation
  /// handle.
  EventId Schedule(SimTime t, EventCallback cb);

  /// \brief Cancels a scheduled event. Cancelling a fired or cancelled
  /// event, kInvalidEventId or an id never issued is a harmless no-op.
  void Cancel(EventId id);

  /// \brief True if no live event remains.
  bool Empty() const;

  /// \brief Time of the earliest live event; kNeverTime if empty.
  SimTime NextTime() const;

  /// \brief Removes and returns the earliest live event.
  ///
  /// Must not be called when Empty(). Sets *time to the event's time.
  EventCallback Pop(SimTime* time);

  /// \brief Pops the earliest live event into *time / *cb if it is due by
  /// `deadline`; false if none is. Reads the queue head once.
  bool PopDue(SimTime deadline, SimTime* time, EventCallback* cb);

  /// \brief Number of live (scheduled, not yet fired or cancelled) events.
  size_t LiveCount() const { return live_; }

  /// \brief Number of cancelled-but-not-yet-reclaimed heap entries.
  ///
  /// Exposed for tests/diagnostics; bounded by LiveCount() + a constant via
  /// amortized compaction.
  size_t CancelledCount() const { return heap_.size() - live_; }

 private:
  struct Slot {
    EventCallback cb;
    uint32_t generation = 0;
    bool live = false;
  };
  struct Entry {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
    uint32_t generation;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      // Larger time (or larger sequence at equal time) = lower priority.
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };

  bool IsStale(const Entry& e) const {
    return slots_[e.slot].generation != e.generation;
  }
  /// \brief Drops stale entries from the heap head.
  void SkipStale() const;
  /// \brief Frees a live slot: drops its callback, bumps its generation.
  void Release(uint32_t slot);

  // Skipping stale entries mutates the heap from logically-const queries
  // (Empty/NextTime), hence mutable.
  mutable std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
  size_t live_ = 0;
};

}  // namespace thrifty

#endif  // THRIFTY_SIM_EVENT_QUEUE_H_
