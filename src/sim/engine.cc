#include "sim/engine.h"

#include <cassert>
#include <utility>

namespace thrifty {

EventId SimEngine::ScheduleAt(SimTime t, EventCallback cb) {
  assert(t >= now_);
  if (t < now_) t = now_;  // release-mode safety: never travel backwards
  return queue_.Schedule(t, std::move(cb));
}

EventId SimEngine::ScheduleAfter(SimDuration delay, EventCallback cb) {
  assert(delay >= 0);
  return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(cb));
}

bool SimEngine::Step() { return FireNext(kNeverTime); }

void SimEngine::Run() {
  while (Step()) {
  }
}

void SimEngine::RunUntil(SimTime deadline) {
  while (FireNext(deadline)) {
  }
  if (now_ < deadline) now_ = deadline;
}

bool SimEngine::FireNext(SimTime deadline) {
  SimTime t;
  EventCallback cb;
  if (!queue_.PopDue(deadline, &t, &cb)) return false;
  now_ = t;
  ++events_processed_;
  cb(t);
  return true;
}

}  // namespace thrifty
