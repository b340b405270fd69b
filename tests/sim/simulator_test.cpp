#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

namespace hpn::sim {
namespace {

TEST(Simulator, StartsAtOrigin) {
  Simulator s;
  EXPECT_EQ(s.now(), TimePoint::origin());
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(TimePoint::at_nanos(30), [&] { order.push_back(3); });
  s.schedule_at(TimePoint::at_nanos(10), [&] { order.push_back(1); });
  s.schedule_at(TimePoint::at_nanos(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now().as_nanos(), 30);
}

TEST(Simulator, SameInstantIsFifo) {
  Simulator s;
  std::vector<int> order;
  const auto t = TimePoint::at_nanos(5);
  for (int i = 0; i < 10; ++i) s.schedule_at(t, [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  TimePoint fired;
  s.schedule_after(Duration::millis(1), [&] {
    s.schedule_after(Duration::millis(2), [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired.as_nanos(), 3'000'000);
}

TEST(Simulator, SchedulingIntoPastThrows) {
  Simulator s;
  s.schedule_at(TimePoint::at_nanos(100), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(TimePoint::at_nanos(50), [] {}), CheckError);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const EventId id = s.schedule_after(Duration::millis(1), [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // second cancel is a no-op
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelUnknownReturnsFalse) {
  Simulator s;
  EXPECT_FALSE(s.cancel(9999));
  EXPECT_FALSE(s.cancel(kInvalidEvent));
  // A slot index far beyond anything allocated.
  EXPECT_FALSE(s.cancel((std::uint64_t{1} << 32) | 0xFFFFFFu));
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator s;
  const EventId id = s.schedule_after(Duration::nanos(1), [] {});
  s.run();
  EXPECT_FALSE(s.cancel(id));
}

TEST(Simulator, ScheduleNowInsideEventFiresAtSameInstantAfterQueued) {
  // schedule_now from within a callback must run at the current instant,
  // after everything already queued for that instant (FIFO by seq).
  Simulator s;
  std::vector<int> order;
  const auto t = TimePoint::at_nanos(7);
  s.schedule_at(t, [&] {
    order.push_back(1);
    s.schedule_now([&] { order.push_back(3); });
  });
  s.schedule_at(t, [&] { order.push_back(2); });
  s.schedule_at(TimePoint::at_nanos(8), [&] { order.push_back(4); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Simulator, RunUntilRunsEventsCascadedWithinBound) {
  // Events scheduled *during* run_until must also run if they land at or
  // before the bound, and the clock must end exactly at the bound.
  Simulator s;
  std::vector<std::int64_t> fired;
  s.schedule_at(TimePoint::at_nanos(10), [&] {
    fired.push_back(s.now().as_nanos());
    s.schedule_after(Duration::nanos(5), [&] { fired.push_back(s.now().as_nanos()); });
    s.schedule_after(Duration::nanos(50), [&] { fired.push_back(s.now().as_nanos()); });
  });
  s.run_until(TimePoint::at_nanos(20));
  EXPECT_EQ(fired, (std::vector<std::int64_t>{10, 15}));
  EXPECT_EQ(s.now().as_nanos(), 20);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(fired.back(), 60);
}

TEST(Simulator, LargeCaptureFallsBackToHeapAndStillFires) {
  // Captures beyond the inline budget must spill to the heap transparently.
  Simulator s;
  std::array<std::uint64_t, 16> payload{};  // 128 B > kInlineBytes
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * 3 + 1;
  std::uint64_t sum = 0;
  Simulator::Callback cb{[payload, &sum] {
    for (const auto v : payload) sum += v;
  }};
  EXPECT_TRUE(cb.heap_allocated());
  s.schedule_after(Duration::nanos(1), std::move(cb));
  s.run();
  EXPECT_EQ(sum, 16u * 15u * 3u / 2u + 16u);
}

TEST(Simulator, SmallCaptureStaysInline) {
  int x = 0;
  Simulator::Callback cb{[&x] { ++x; }};
  EXPECT_FALSE(cb.heap_allocated());
}

TEST(Simulator, CancelReleasesCapturesPromptly) {
  // Cancelling must destroy the callback's captures immediately (RAII
  // resources in captures must not linger until the event's time passes).
  Simulator s;
  auto token = std::make_shared<int>(42);
  const EventId id = s.schedule_after(Duration::hours(1), [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(s.cancel(id));
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator s;
  s.run_until(TimePoint::at_nanos(500));
  EXPECT_EQ(s.now().as_nanos(), 500);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator s;
  int fired = 0;
  s.schedule_at(TimePoint::at_nanos(10), [&] { ++fired; });
  s.schedule_at(TimePoint::at_nanos(20), [&] { ++fired; });
  s.schedule_at(TimePoint::at_nanos(21), [&] { ++fired; });
  s.run_until(TimePoint::at_nanos(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now().as_nanos(), 20);
  s.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule_after(Duration::nanos(1), recurse);
  };
  s.schedule_now(recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.processed_events(), 100u);
}

TEST(Simulator, NextEventTime) {
  Simulator s;
  EXPECT_EQ(s.next_event_time(), TimePoint::far_future());
  const auto id = s.schedule_at(TimePoint::at_nanos(42), [] {});
  EXPECT_EQ(s.next_event_time().as_nanos(), 42);
  s.cancel(id);
  EXPECT_EQ(s.next_event_time(), TimePoint::far_future());
}

TEST(Simulator, ScheduledEventsCountsFiredCancelledAndPending) {
  Simulator s;
  EXPECT_EQ(s.scheduled_events(), 0u);
  s.schedule_at(TimePoint::at_nanos(10), [&s] { s.schedule_now([] {}); });
  const auto cancelled = s.schedule_at(TimePoint::at_nanos(20), [] {});
  s.schedule_at(TimePoint::at_nanos(30), [] {});
  ASSERT_TRUE(s.cancel(cancelled));
  s.run_until(TimePoint::at_nanos(15));
  EXPECT_EQ(s.scheduled_events(), 4u);  // 2 fired, 1 cancelled, 1 pending
  EXPECT_EQ(s.processed_events(), 2u);
  s.run();
  EXPECT_EQ(s.scheduled_events(), 4u);
  EXPECT_EQ(s.processed_events(), 3u);
}

TEST(PeriodicTimer, TicksAtPeriod) {
  Simulator s;
  std::vector<std::int64_t> ticks;
  PeriodicTimer timer{s, Duration::millis(10), [&] {
                        ticks.push_back(s.now().as_nanos());
                        return ticks.size() < 3;
                      }};
  s.run();
  ASSERT_EQ(ticks.size(), 3u);
  EXPECT_EQ(ticks[0], 10'000'000);
  EXPECT_EQ(ticks[1], 20'000'000);
  EXPECT_EQ(ticks[2], 30'000'000);
}

TEST(PeriodicTimer, ImmediateFirstTick) {
  Simulator s;
  int count = 0;
  PeriodicTimer timer{s, Duration::millis(5), [&] { return ++count < 2; },
                      /*immediate=*/true};
  s.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now().as_nanos(), 5'000'000);
}

TEST(PeriodicTimer, StopCancels) {
  Simulator s;
  int count = 0;
  PeriodicTimer timer{s, Duration::millis(1), [&] { ++count; return true; }};
  s.schedule_at(TimePoint::at_nanos(3'500'000), [&] { timer.stop(); });
  s.run();
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(timer.running());
}

}  // namespace
}  // namespace hpn::sim
