#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace ecldb::sim {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(Millis(3), [&] { order.push_back(3); });
  q.Schedule(Millis(1), [&] { order.push_back(1); });
  q.Schedule(Millis(2), [&] { order.push_back(2); });
  while (!q.empty()) q.PopAndRun();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(Millis(1), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.PopAndRun();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.Schedule(Millis(1), [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // double cancel is a no-op
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelAfterExecutionIsRejected) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.Schedule(Millis(1), [&] { fired = true; });
  q.Schedule(Millis(2), [] {});
  q.PopAndRun();
  EXPECT_TRUE(fired);
  // The event already ran: cancelling its id must fail and must not
  // corrupt the live-event accounting of the remaining event (a stale
  // cancel used to decrement the live count and make the queue report
  // empty while an event was still pending).
  EXPECT_FALSE(q.Cancel(id));
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.NextTime(), Millis(2));
  q.PopAndRun();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.Schedule(Millis(1), [] {});
  q.Schedule(Millis(5), [] {});
  q.Cancel(early);
  EXPECT_EQ(q.NextTime(), Millis(5));
}

// Ids are dense and only grow; the pending bookkeeping is indexed by id.
// Under churn (100 k events, every third cancelled, pops interleaved) the
// live count and the next time must match a reference set exactly, and
// cancelling a fired, cancelled or unknown id must change neither. Every
// thousandth event is due only after all others, so it stays pending
// while far more than the bookkeeping's window of newer ids is issued.
TEST(EventQueueTest, CancelChurnKeepsSizeExact) {
  EventQueue q;
  std::set<std::pair<SimTime, EventId>> live;
  std::vector<std::pair<SimTime, EventId>> scheduled;
  int64_t fired = 0;
  for (int i = 0; i < 100'000; ++i) {
    // Times out of id order, so the heap top is not the oldest id.
    const SimTime t = i % 1000 == 0
                          ? Seconds(10) + Micros(i)
                          : Micros((i * 7919) % 10'007) + Millis(i / 64);
    const EventId id = q.Schedule(t, [&fired] { ++fired; });
    scheduled.emplace_back(t, id);
    live.emplace(t, id);
    if (i % 3 == 2) {
      // Cancel an older event; it may have fired or been cancelled already.
      const auto& victim = scheduled[static_cast<size_t>(i / 2)];
      EXPECT_EQ(q.Cancel(victim.second), live.erase(victim) == 1);
    }
    if (i % 4 == 3) {
      ASSERT_FALSE(live.empty());
      EXPECT_EQ(q.PopAndRun(), live.begin()->first);
      live.erase(live.begin());
    }
    ASSERT_EQ(q.size(), live.size());
    ASSERT_EQ(q.NextTime(), live.empty() ? kSimTimeNever : live.begin()->first);
  }
  EXPECT_FALSE(q.Cancel(0));
  EXPECT_FALSE(q.Cancel(scheduled.back().second + 1));
  EXPECT_EQ(q.size(), live.size());
  const int64_t fired_before_drain = fired;
  while (!q.empty()) q.PopAndRun();
  EXPECT_EQ(fired - fired_before_drain, static_cast<int64_t>(live.size()));
  EXPECT_EQ(q.NextTime(), kSimTimeNever);
  for (const auto& [t, id] : scheduled) EXPECT_FALSE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  q.Schedule(Millis(1), [&] {
    ++count;
    q.Schedule(Millis(2), [&] { ++count; });
  });
  while (!q.empty()) q.PopAndRun();
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, TimeAdvancesToEvents) {
  Simulator s;
  SimTime seen = -1;
  s.Schedule(Millis(7), [&] { seen = s.now(); });
  s.RunUntil(Millis(10));
  EXPECT_EQ(seen, Millis(7));
  EXPECT_EQ(s.now(), Millis(10));
}

TEST(SimulatorTest, AdvancersCoverEveryInterval) {
  Simulator s;
  s.set_max_slice(Millis(1));
  SimDuration covered = 0;
  SimTime last_end = 0;
  s.RegisterAdvancer([&](SimTime from, SimTime to) {
    EXPECT_EQ(from, last_end);
    EXPECT_GT(to, from);
    EXPECT_LE(to - from, Millis(1));
    covered += to - from;
    last_end = to;
  });
  s.Schedule(Micros(1500), [] {});  // forces a partial slice
  s.RunUntil(Millis(5));
  EXPECT_EQ(covered, Millis(5));
  EXPECT_EQ(last_end, Millis(5));
}

TEST(SimulatorTest, AdvancerRunsBeforeEventAtSameTime) {
  Simulator s;
  SimDuration covered_at_event = -1;
  SimDuration covered = 0;
  s.RegisterAdvancer([&](SimTime from, SimTime to) { covered += to - from; });
  s.Schedule(Millis(3), [&] { covered_at_event = covered; });
  s.RunUntil(Millis(3));
  EXPECT_EQ(covered_at_event, Millis(3));
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  s.RunUntil(Millis(5));
  SimTime fired = -1;
  s.ScheduleAfter(Millis(2), [&] { fired = s.now(); });
  s.RunUntil(Millis(10));
  EXPECT_EQ(fired, Millis(7));
}

TEST(SimulatorTest, CancelledEventDoesNotFire) {
  Simulator s;
  bool fired = false;
  const EventId id = s.Schedule(Millis(2), [&] { fired = true; });
  s.Cancel(id);
  s.RunUntil(Millis(5));
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, PeriodicSelfScheduling) {
  Simulator s;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 5) s.ScheduleAfter(Millis(10), tick);
  };
  s.ScheduleAfter(Millis(10), tick);
  s.RunUntil(Seconds(1));
  EXPECT_EQ(ticks, 5);
}

}  // namespace
}  // namespace ecldb::sim
