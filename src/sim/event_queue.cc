#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace thrifty {

EventId EventQueue::Schedule(SimTime t, EventCallback cb) {
  uint32_t slot = static_cast<uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.live = true;
  ++live_;
  heap_.push_back(Entry{t, next_seq_++, slot, s.generation});
  std::push_heap(heap_.begin(), heap_.end(), EntryLater{});
  return (EventId{s.generation} << 32) | (slot + EventId{1});
}

void EventQueue::Cancel(EventId id) {
  // The low half is slot + 1 (0 decodes to no slot); a stale id fails the
  // generation check even after its slot was re-used.
  const uint32_t low = static_cast<uint32_t>(id);
  if (low == 0 || low > slots_.size()) return;
  const Slot& s = slots_[low - 1];
  if (!s.live || s.generation != static_cast<uint32_t>(id >> 32)) return;
  Release(low - 1);
  // Head-skipping alone reclaims a stale entry only when it surfaces, so a
  // workload that keeps cancelling far-future events would grow the heap
  // without bound. Rebuild once stale entries dominate; each entry is
  // dropped at most once, so cancels stay amortized O(1).
  if (CancelledCount() < 64 || CancelledCount() <= live_) return;
  std::erase_if(heap_, [this](const Entry& e) { return IsStale(e); });
  std::make_heap(heap_.begin(), heap_.end(), EntryLater{});
}

void EventQueue::Release(uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;
  s.live = false;
  ++s.generation;
  free_slots_.push_back(slot);
  --live_;
}

void EventQueue::SkipStale() const {
  while (!heap_.empty() && IsStale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), EntryLater{});
    heap_.pop_back();
  }
}

bool EventQueue::Empty() const {
  SkipStale();
  return heap_.empty();
}

SimTime EventQueue::NextTime() const {
  SkipStale();
  return heap_.empty() ? kNeverTime : heap_.front().time;
}

EventCallback EventQueue::Pop(SimTime* time) {
  EventCallback cb;
  [[maybe_unused]] const bool popped = PopDue(kNeverTime, time, &cb);
  assert(popped);
  return cb;
}

bool EventQueue::PopDue(SimTime deadline, SimTime* time, EventCallback* cb) {
  SkipStale();
  if (heap_.empty() || heap_.front().time > deadline) return false;
  const Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), EntryLater{});
  heap_.pop_back();
  *time = top.time;
  *cb = std::move(slots_[top.slot].cb);
  Release(top.slot);
  return true;
}

}  // namespace thrifty
