// Event-pool internals: generation-tagged handle recycling, tombstone
// compaction under cancel-heavy churn, and a differential suite pinning the
// pooled engine's firing order to the seed shared_ptr/priority_queue core
// (tests/support/reference_simulator.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"
#include "tests/support/reference_simulator.h"

namespace hpn::sim {
namespace {

TEST(EventPool, SlotRecycleInvalidatesStaleHandles) {
  Simulator s;
  bool second_fired = false;
  const EventId first = s.schedule_after(Duration::nanos(10), [] {});
  ASSERT_TRUE(s.cancel(first));
  // The tombstone is reclaimed on the next pop; schedule+run enough that the
  // slot is certainly recycled by a new event.
  const EventId second = s.schedule_after(Duration::nanos(20), [&] { second_fired = true; });
  // The stale handle must never cancel the slot's new tenant.
  EXPECT_FALSE(s.cancel(first));
  s.run();
  EXPECT_TRUE(second_fired);
  // And both handles are dead now.
  EXPECT_FALSE(s.cancel(first));
  EXPECT_FALSE(s.cancel(second));
}

TEST(EventPool, HandlesAreUniqueAcrossRecycles) {
  // Fire the same slot thousands of times; every returned handle must be
  // distinct (generation advances) and never kInvalidEvent.
  Simulator s;
  std::vector<EventId> seen;
  for (int i = 0; i < 5'000; ++i) {
    const EventId id = s.schedule_now([] {});
    EXPECT_NE(id, kInvalidEvent);
    seen.push_back(id);
    s.run();
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
  // Single-event lifecycle reuses one slot (plus compaction slack of zero).
  EXPECT_LE(s.event_pool_slots(), 2u);
}

TEST(EventPool, CancelHeavyChurnKeepsPoolBounded) {
  // The PeriodicTimer/FlowSession pattern: cancel + re-arm over and over at
  // the same instant. Tombstones pile into the heap faster than time
  // drains them, so compaction must bound the pool.
  Simulator s;
  const int kChurn = 100'000;
  EventId pending = s.schedule_after(Duration::millis(1), [] {});
  for (int i = 0; i < kChurn; ++i) {
    ASSERT_TRUE(s.cancel(pending));
    pending = s.schedule_after(Duration::millis(1), [] {});
  }
  EXPECT_EQ(s.pending_events(), 1u);
  // Without compaction the pool would hold ~kChurn slots.
  EXPECT_LT(s.event_pool_slots(), 1'024u);
  EXPECT_LT(s.pending_tombstones(), 1'024u);
  s.run();
  EXPECT_EQ(s.processed_events(), 1u);
}

TEST(EventPool, TimerStopStartChurnKeepsPoolBounded) {
  Simulator s;
  for (int i = 0; i < 20'000; ++i) {
    PeriodicTimer t{s, Duration::micros(50), [] { return true; }};
    // destructor cancels
  }
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_LT(s.event_pool_slots(), 1'024u);
}

TEST(EventPool, CompactionPreservesFiringOrder) {
  // Build a schedule big enough to trigger compaction (cancel > half), then
  // check the survivors fire in exact (time, FIFO) order.
  Simulator s;
  std::vector<int> fired;
  std::vector<EventId> ids;
  const int n = 2'000;
  for (int i = 0; i < n; ++i) {
    // Deliberate collisions: only 97 distinct instants.
    const auto at = TimePoint::at_nanos((i * 37) % 97 + 1);
    ids.push_back(s.schedule_at(at, [&fired, i] { fired.push_back(i); }));
  }
  std::vector<std::pair<std::pair<std::int64_t, int>, int>> expect;  // ((at, seq), i)
  for (int i = 0; i < n; ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(s.cancel(ids[static_cast<std::size_t>(i)]));
    } else {
      expect.push_back({{(i * 37) % 97 + 1, i}, i});
    }
  }
  std::sort(expect.begin(), expect.end());
  s.run();
  ASSERT_EQ(fired.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) EXPECT_EQ(fired[i], expect[i].second);
}

TEST(EventPool, PendingEventsExcludesTombstones) {
  Simulator s;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(s.schedule_after(Duration::nanos(i + 1), [] {}));
  for (int i = 0; i < 10; i += 2) s.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(s.pending_events(), 5u);
  s.run();
  EXPECT_EQ(s.processed_events(), 5u);
}

// ---- Differential: pooled engine vs the seed core -------------------------

/// Spans of simulated time the differential draws its event times from:
/// 20 us keeps every event a few hundred ns apart, and 10 s spreads them
/// from 1 ns to seconds, with long empty gaps between the late ones.
constexpr std::int64_t kShortSpanNs = 20'000;
constexpr std::int64_t kLongSpanNs = 10'000'000'000;

/// A delay in [0, span_ns]: uniform over a short span, log-uniform from 1 ns
/// over a long one, so every decade up to the span gets events.
std::int64_t draw_ns(Rng& rng, std::int64_t span_ns) {
  if (span_ns <= kShortSpanNs) return rng.uniform_int(0, span_ns);
  return static_cast<std::int64_t>(
      std::pow(static_cast<double>(span_ns), rng.uniform_real()));
}

/// Drives an identical randomized schedule/cancel/cascade workload through
/// either engine and records the tag of every fired event.
template <typename Sim>
std::vector<int> run_workload(std::uint64_t seed, std::int64_t span_ns) {
  Rng rng{seed};
  Sim s;
  std::vector<int> fired;
  std::vector<decltype(s.schedule_now([] {}))> cancellable;
  int next_tag = 0;

  const int n = 400;
  for (int i = 0; i < n; ++i) {
    const int tag = next_tag++;
    const auto at = TimePoint::at_nanos(draw_ns(rng, span_ns));
    const bool cascades = rng.bernoulli(0.25);
    const auto id = s.schedule_at(at, [&, tag, cascades] {
      fired.push_back(tag);
      if (cascades) {
        const int child = next_tag++;
        s.schedule_after(Duration::nanos(child % (span_ns / 40)), [&fired, child] {
          fired.push_back(child);
        });
      }
    });
    if (rng.bernoulli(0.4)) cancellable.push_back(id);
  }
  // Cancel a deterministic subset (every other saved id).
  for (std::size_t i = 0; i < cancellable.size(); i += 2) s.cancel(cancellable[i]);
  // Interleave run_until with more scheduling, then drain.
  s.run_until(TimePoint::at_nanos(span_ns / 2));
  for (int i = 0; i < 50; ++i) {
    const int tag = next_tag++;
    s.schedule_after(Duration::nanos(draw_ns(rng, span_ns / 4)),
                     [&fired, tag] { fired.push_back(tag); });
  }
  s.run();
  // Cross one more empty span, then schedule from the far side of the gap.
  s.run_until(s.now() + Duration::nanos(span_ns));
  for (int i = 0; i < 50; ++i) {
    const int tag = next_tag++;
    s.schedule_after(Duration::nanos(draw_ns(rng, span_ns)),
                     [&fired, tag] { fired.push_back(tag); });
  }
  s.run();
  return fired;
}

class EventCoreDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventCoreDifferential, FiringSequenceMatchesSeedCore) {
  for (const std::int64_t span_ns : {kShortSpanNs, kLongSpanNs}) {
    SCOPED_TRACE(span_ns);
    const std::vector<int> pooled = run_workload<Simulator>(GetParam(), span_ns);
    const std::vector<int> reference =
        run_workload<testing::ReferenceSimulator>(GetParam(), span_ns);
    EXPECT_EQ(pooled, reference);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventCoreDifferential,
                         ::testing::Values(1u, 7u, 42u, 1234u, 987654321u));

}  // namespace
}  // namespace hpn::sim
