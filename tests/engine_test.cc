#include "sim/engine.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/event_queue.h"

namespace thrifty {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(30, [&](SimTime) { fired.push_back(3); });
  q.Schedule(10, [&](SimTime) { fired.push_back(1); });
  q.Schedule(20, [&](SimTime) { fired.push_back(2); });
  while (!q.Empty()) {
    SimTime t;
    q.Pop(&t)(t);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFifoByScheduleOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(100, [&fired, i](SimTime) { fired.push_back(i); });
  }
  while (!q.Empty()) {
    SimTime t;
    q.Pop(&t)(t);
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelSkipsEvent) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(10, [&](SimTime) { fired.push_back(1); });
  EventId id = q.Schedule(20, [&](SimTime) { fired.push_back(2); });
  q.Schedule(30, [&](SimTime) { fired.push_back(3); });
  q.Cancel(id);
  EXPECT_EQ(q.LiveCount(), 2u);
  while (!q.Empty()) {
    SimTime t;
    q.Pop(&t)(t);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, CancelInvalidIsNoop) {
  EventQueue q;
  q.Cancel(kInvalidEventId);
  q.Cancel(12345);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, StaleCancelsLeaveNoTombstones) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(q.Schedule(10 * (i + 1), [](SimTime) {}));
  }
  // Fire everything, then cancel each fired id repeatedly: every stale
  // cancel must be a no-op, leaving cancelled_ empty and LiveCount() exact.
  while (!q.Empty()) {
    SimTime t;
    q.Pop(&t)(t);
  }
  EXPECT_EQ(q.LiveCount(), 0u);
  for (int round = 0; round < 3; ++round) {
    for (EventId id : ids) q.Cancel(id);
  }
  EXPECT_EQ(q.CancelledCount(), 0u);
  EXPECT_EQ(q.LiveCount(), 0u);

  // Mixed case: one live event plus stale cancels; the live count and the
  // tombstone count track only real state.
  EventId live = q.Schedule(1000, [](SimTime) {});
  for (EventId id : ids) q.Cancel(id);
  EXPECT_EQ(q.LiveCount(), 1u);
  EXPECT_EQ(q.CancelledCount(), 0u);
  q.Cancel(live);
  EXPECT_EQ(q.LiveCount(), 0u);
  q.Cancel(live);  // double cancel: no second tombstone
  EXPECT_LE(q.CancelledCount(), 1u);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.CancelledCount(), 0u);  // Empty() reclaimed the head tombstone
}

TEST(EventQueueTest, CancelHeavyRunsStayCompact) {
  // Schedule far-future events and cancel them long before they surface:
  // lazy head-skipping alone would never reclaim these, so the amortized
  // compaction must keep tombstones bounded by the live count + slack.
  EventQueue q;
  for (int wave = 0; wave < 100; ++wave) {
    std::vector<EventId> wave_ids;
    for (int i = 0; i < 100; ++i) {
      wave_ids.push_back(q.Schedule(1'000'000 + wave * 100 + i,
                                    [](SimTime) {}));
    }
    for (EventId id : wave_ids) q.Cancel(id);
    EXPECT_EQ(q.LiveCount(), 0u);
    EXPECT_LE(q.CancelledCount(), 128u) << "wave " << wave;
  }
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, CompactionPreservesOrderAndLiveEvents) {
  EventQueue q;
  std::vector<EventId> doomed;
  std::vector<int> fired;
  // Interleave keepers with a tombstone-heavy cancel wave that forces at
  // least one compaction, then verify firing order of the survivors.
  for (int i = 0; i < 10; ++i) {
    int tag = 9 - i;
    q.Schedule(100 + 10 * tag, [&fired, tag](SimTime) { fired.push_back(tag); });
  }
  for (int i = 0; i < 500; ++i) {
    doomed.push_back(q.Schedule(10'000 + i, [](SimTime) {}));
  }
  for (EventId id : doomed) q.Cancel(id);
  EXPECT_EQ(q.LiveCount(), 10u);
  EXPECT_LE(q.CancelledCount(), 128u);
  while (!q.Empty()) {
    SimTime t;
    q.Pop(&t)(t);
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueueTest, ConstQueriesWorkOnConstQueue) {
  EventQueue q;
  q.Schedule(42, [](SimTime) {});
  const EventQueue& const_q = q;
  EXPECT_FALSE(const_q.Empty());
  EXPECT_EQ(const_q.NextTime(), 42);
  EXPECT_EQ(const_q.LiveCount(), 1u);
}

TEST(EventQueueTest, NextTimeReflectsHead) {
  EventQueue q;
  EXPECT_EQ(q.NextTime(), kNeverTime);
  EventId id = q.Schedule(50, [](SimTime) {});
  q.Schedule(70, [](SimTime) {});
  EXPECT_EQ(q.NextTime(), 50);
  q.Cancel(id);
  EXPECT_EQ(q.NextTime(), 70);
}

TEST(EventQueueTest, StaleIdDoesNotCancelSlotReuser) {
  // ABA: a fired event's slot is re-used by the next schedule; cancelling
  // the fired id must not cancel the new occupant.
  EventQueue q;
  std::vector<int> fired;
  EventId first = q.Schedule(10, [&](SimTime) { fired.push_back(1); });
  SimTime t;
  q.Pop(&t)(t);
  EventId second = q.Schedule(20, [&](SimTime) { fired.push_back(2); });
  EXPECT_NE(first, second);
  EXPECT_EQ(static_cast<uint32_t>(first), static_cast<uint32_t>(second))
      << "the second event should re-use the first one's slot";
  q.Cancel(first);
  EXPECT_EQ(q.LiveCount(), 1u);
  EXPECT_EQ(q.CancelledCount(), 0u);
  q.Pop(&t)(t);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));

  // Same for an id that was cancelled rather than fired.
  EventId doomed = q.Schedule(30, [&](SimTime) { fired.push_back(3); });
  q.Cancel(doomed);
  EventId reuser = q.Schedule(40, [&](SimTime) { fired.push_back(4); });
  q.Cancel(doomed);
  EXPECT_EQ(q.LiveCount(), 1u);
  q.Pop(&t)(t);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 4}));
  q.Cancel(reuser);  // fired: no-op
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, CancelAfterCompaction) {
  EventQueue q;
  std::vector<int> fired;
  EventId keeper = q.Schedule(5, [&](SimTime) { fired.push_back(0); });
  q.Schedule(7, [&](SimTime) { fired.push_back(1); });
  std::vector<EventId> doomed;
  for (int i = 0; i < 200; ++i) {
    doomed.push_back(q.Schedule(100 + i, [](SimTime) {}));
  }
  for (EventId id : doomed) q.Cancel(id);
  // The compaction rule ran: stale entries never exceed max(63, live).
  EXPECT_LE(q.CancelledCount(), 63u);
  EXPECT_EQ(q.LiveCount(), 2u);
  // Ids issued before the compaction still cancel exactly their event, and
  // re-cancelling compacted-away ids stays a no-op.
  q.Cancel(keeper);
  for (EventId id : doomed) q.Cancel(id);
  EXPECT_EQ(q.LiveCount(), 1u);
  EXPECT_EQ(q.NextTime(), 7);
  SimTime t;
  q.Pop(&t)(t);
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.CancelledCount(), 0u);
}

TEST(EventQueueTest, InvalidAndOutOfRangeIdsAreNoops) {
  EventQueue q;
  EventId live = q.Schedule(10, [](SimTime) {});
  for (EventId id : {kInvalidEventId, EventId{1} << 32, EventId{12345},
                     (EventId{7} << 32) | 1, ~EventId{0}}) {
    if (id == live) continue;
    q.Cancel(id);
  }
  EXPECT_EQ(q.LiveCount(), 1u);
  EXPECT_EQ(q.CancelledCount(), 0u);
  EXPECT_EQ(q.NextTime(), 10);
}

// One randomized schedule/cancel/pop script, fully determined by its case
// id (replay a failure by calling RunQueueCase(id) alone), checked against
// a std::map keyed by (time, schedule sequence).
void RunQueueCase(int id) {
  SCOPED_TRACE("case " + std::to_string(id));
  Rng rng(0xe7e47000u + static_cast<uint64_t>(id));
  EventQueue q;
  std::map<std::pair<SimTime, uint64_t>, EventId> reference;
  std::vector<EventId> gone;  // fired or cancelled ids
  std::vector<uint64_t> fired;
  uint64_t seq = 0;
  size_t peak_live = 0;
  const SimTime horizon = rng.NextInt(1, 200);  // small: many equal times
  const int ops = static_cast<int>(rng.NextInt(1, 600));
  for (int op = 0; op < ops; ++op) {
    const double u = rng.NextDouble();
    if (u < 0.45) {
      SimTime t = rng.NextInt(0, horizon);
      uint64_t tag = seq++;
      EventId eid = q.Schedule(t, [&fired, tag](SimTime) {
        fired.push_back(tag);
      });
      ASSERT_NE(eid, kInvalidEventId);
      reference[{t, tag}] = eid;
    } else if (u < 0.65 && !reference.empty()) {
      auto it = reference.begin();
      std::advance(it, static_cast<long>(rng.NextBounded(reference.size())));
      q.Cancel(it->second);
      gone.push_back(it->second);
      reference.erase(it);
      EXPECT_LE(q.CancelledCount(), std::max<size_t>(63, q.LiveCount()));
    } else if (u < 0.75 && !gone.empty()) {
      q.Cancel(gone[rng.NextBounded(gone.size())]);  // stale: no-op
    } else {
      SimTime deadline = rng.NextBool(0.5) ? kNeverTime
                                           : rng.NextInt(0, horizon);
      const bool due =
          !reference.empty() && reference.begin()->first.first <= deadline;
      EXPECT_EQ(q.NextTime(), reference.empty()
                                  ? kNeverTime
                                  : reference.begin()->first.first);
      SimTime t = -1;
      EventCallback cb;
      ASSERT_EQ(q.PopDue(deadline, &t, &cb), due) << "op " << op;
      if (due) {
        auto [key, eid] = *reference.begin();
        ASSERT_EQ(t, key.first) << "op " << op;
        cb(t);
        ASSERT_EQ(fired.back(), key.second) << "op " << op;
        gone.push_back(eid);
        reference.erase(reference.begin());
      }
    }
    peak_live = std::max(peak_live, reference.size());
    ASSERT_EQ(q.LiveCount(), reference.size()) << "op " << op;
    ASSERT_LE(q.CancelledCount(), std::max<size_t>(64, peak_live));
  }
  // Drain: the remaining events fire in (time, sequence) order.
  while (!q.Empty()) {
    SimTime t;
    q.Pop(&t)(t);
    ASSERT_FALSE(reference.empty());
    ASSERT_EQ(t, reference.begin()->first.first);
    ASSERT_EQ(fired.back(), reference.begin()->first.second);
    reference.erase(reference.begin());
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_EQ(q.LiveCount(), 0u);
  EXPECT_EQ(q.CancelledCount(), 0u);
}

TEST(EventQueueTest, MatchesOrderedMapModel) {
  for (int id = 0; id < 400; ++id) RunQueueCase(id);
}

TEST(SimEngineTest, ClockAdvancesToEventTimes) {
  SimEngine engine;
  std::vector<SimTime> seen;
  engine.ScheduleAt(100, [&](SimTime t) { seen.push_back(t); });
  engine.ScheduleAt(50, [&](SimTime t) { seen.push_back(t); });
  EXPECT_EQ(engine.now(), 0);
  engine.Run();
  EXPECT_EQ(seen, (std::vector<SimTime>{50, 100}));
  EXPECT_EQ(engine.now(), 100);
  EXPECT_EQ(engine.events_processed(), 2u);
}

TEST(SimEngineTest, ScheduleAfterIsRelative) {
  SimEngine engine;
  SimTime fired_at = -1;
  engine.ScheduleAt(10, [&](SimTime) {
    engine.ScheduleAfter(5, [&](SimTime t) { fired_at = t; });
  });
  engine.Run();
  EXPECT_EQ(fired_at, 15);
}

TEST(SimEngineTest, EventsCanScheduleMoreEvents) {
  SimEngine engine;
  int count = 0;
  std::function<void(SimTime)> chain = [&](SimTime) {
    if (++count < 10) engine.ScheduleAfter(1, chain);
  };
  engine.ScheduleAt(0, chain);
  engine.Run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(engine.now(), 9);
}

TEST(SimEngineTest, RunUntilStopsAtDeadline) {
  SimEngine engine;
  std::vector<SimTime> seen;
  for (SimTime t : {10, 20, 30, 40}) {
    engine.ScheduleAt(t, [&](SimTime now) { seen.push_back(now); });
  }
  engine.RunUntil(25);
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(engine.now(), 25);  // clock advances to the deadline exactly
  EXPECT_EQ(engine.events_pending(), 2u);
  engine.RunUntil(100);
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(engine.now(), 100);
}

TEST(SimEngineTest, RunUntilIncludesDeadlineEvents) {
  SimEngine engine;
  bool fired = false;
  engine.ScheduleAt(25, [&](SimTime) { fired = true; });
  engine.RunUntil(25);
  EXPECT_TRUE(fired);
}

TEST(SimEngineTest, CancelPreventsFiring) {
  SimEngine engine;
  bool fired = false;
  EventId id = engine.ScheduleAt(10, [&](SimTime) { fired = true; });
  engine.Cancel(id);
  engine.Run();
  EXPECT_FALSE(fired);
}

TEST(SimEngineTest, StepReturnsFalseWhenEmpty) {
  SimEngine engine;
  EXPECT_FALSE(engine.Step());
  engine.ScheduleAt(5, [](SimTime) {});
  EXPECT_TRUE(engine.Step());
  EXPECT_FALSE(engine.Step());
}

}  // namespace
}  // namespace thrifty
