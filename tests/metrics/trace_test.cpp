// Tracer unit tests: ring-buffer semantics, filters, exporters, and the
// per-entity read index against the copy-and-scan oracle.
#include "metrics/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "tests/support/reference_tracer_reads.h"

namespace hpn::metrics {
namespace {

TimePoint at_us(std::int64_t us) { return TimePoint::origin() + Duration::micros(us); }

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.record(at_us(1), TraceEventKind::kFlowStart, 7);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.capacity(), 0u);  // nothing allocated until enable()
}

TEST(TracerTest, RecordsInOrderWhileEnabled) {
  Tracer t;
  t.enable(64);
  t.record(at_us(1), TraceEventKind::kFlowStart, 1, kTraceNoId, 100.0);
  t.record(at_us(2), TraceEventKind::kFlowStart, 2, kTraceNoId, 200.0);
  t.record(at_us(3), TraceEventKind::kFlowFinish, 1, kTraceNoId, 0.5);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].a, 1u);
  EXPECT_EQ(evs[1].a, 2u);
  EXPECT_EQ(evs[2].kind, TraceEventKind::kFlowFinish);
  EXPECT_DOUBLE_EQ(evs[1].value, 200.0);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TracerTest, DisableStopsRecordingButKeepsEvents) {
  Tracer t;
  t.enable(8);
  t.record(at_us(1), TraceEventKind::kLinkDown, 3);
  t.disable();
  t.record(at_us(2), TraceEventKind::kLinkUp, 3);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.events().front().kind, TraceEventKind::kLinkDown);
}

TEST(TracerTest, RingOverwritesOldestAndCountsDrops) {
  Tracer t;
  t.enable(4);
  for (std::uint32_t i = 0; i < 6; ++i) {
    t.record(at_us(i), TraceEventKind::kFlowStart, i);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 2u);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs.front().a, 2u);  // events 0 and 1 were overwritten
  EXPECT_EQ(evs.back().a, 5u);
}

TEST(TracerTest, ReenableSameCapacityKeepsEvents) {
  Tracer t;
  t.enable(16);
  t.record(at_us(1), TraceEventKind::kFlowStart, 1);
  t.enable(16);  // same capacity: no reallocation, no loss
  EXPECT_EQ(t.size(), 1u);
  t.enable(32);  // different capacity: clears
  EXPECT_TRUE(t.empty());
}

TEST(TracerTest, EventsOfFiltersByKindAndEntity) {
  Tracer t;
  t.enable(64);
  t.record(at_us(1), TraceEventKind::kQueueDepth, 10, kTraceNoId, 1.0);
  t.record(at_us(2), TraceEventKind::kQueueDepth, 11, kTraceNoId, 2.0);
  t.record(at_us(3), TraceEventKind::kQueueDepth, 10, kTraceNoId, 3.0);
  t.record(at_us(4), TraceEventKind::kLinkDown, 10);
  EXPECT_EQ(t.events_of(TraceEventKind::kQueueDepth).size(), 3u);
  const auto link10 = t.events_of(TraceEventKind::kQueueDepth, 10);
  ASSERT_EQ(link10.size(), 2u);
  EXPECT_DOUBLE_EQ(link10[1].value, 3.0);
  EXPECT_EQ(t.events_of(TraceEventKind::kLinkUp).size(), 0u);
}

TEST(TracerTest, SeriesExtractsTimeSeries) {
  Tracer t;
  t.enable(64);
  t.record(at_us(1), TraceEventKind::kQueueDepth, 5, kTraceNoId, 100.0);
  t.record(at_us(2), TraceEventKind::kQueueDepth, 6, kTraceNoId, 999.0);
  t.record(at_us(3), TraceEventKind::kQueueDepth, 5, kTraceNoId, 300.0);
  const TimeSeries s = t.series(TraceEventKind::kQueueDepth, 5);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.points()[0].value, 100.0);
  EXPECT_DOUBLE_EQ(s.points()[1].value, 300.0);
  EXPECT_EQ(s.points()[1].at, at_us(3));
}

TEST(TracerTest, WatchFiltersLinks) {
  Tracer t;
  const LinkId a{3}, b{9};
  EXPECT_FALSE(t.watching(a));  // disabled tracer watches nothing
  t.enable(8);
  EXPECT_FALSE(t.watching(a));
  t.watch_link(a);
  EXPECT_TRUE(t.watching(a));
  EXPECT_FALSE(t.watching(b));
  t.watch_all_links(true);
  EXPECT_TRUE(t.watching(b));
}

TEST(TracerTest, SpanIdsAreMonotonic) {
  Tracer t;
  const std::uint32_t s1 = t.begin_span();
  const std::uint32_t s2 = t.begin_span();
  EXPECT_LT(s1, s2);
}

TEST(TracerTest, CsvHasHeaderAndOneLinePerEvent) {
  Tracer t;
  t.enable(8);
  t.record(at_us(1), TraceEventKind::kFlowStart, 1, kTraceNoId, 4096.0);
  t.record(at_us(2), TraceEventKind::kCollectiveBegin, 1, 16, 1024.0, "all_reduce");
  std::ostringstream os;
  t.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("time_ns,kind,a,b,value,label"), std::string::npos);
  EXPECT_NE(csv.find("1000,flow_start,1,,4096,"), std::string::npos);
  EXPECT_NE(csv.find("2000,collective_begin,1,16,1024,all_reduce"), std::string::npos);
}

TEST(TracerTest, ChromeJsonPairsSpansAndEmitsCounters) {
  Tracer t;
  t.enable(16);
  const std::uint32_t span = t.begin_span();
  t.record(at_us(1), TraceEventKind::kCollectiveBegin, span, 8, 1e6, "all_reduce");
  t.record(at_us(5), TraceEventKind::kQueueDepth, 2, kTraceNoId, 4096.0);
  t.record(at_us(9), TraceEventKind::kCollectiveEnd, span, kTraceNoId, 0.0, "all_reduce");
  t.record(at_us(10), TraceEventKind::kLinkDown, 2);
  std::ostringstream os;
  t.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.find("{\"displayTimeUnit\""), 0u);
  // Async begin/end pair with matching ids.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  // Counter for the queue sample, instant for the link event.
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("queue_depth:link2"), std::string::npos);
  // Balanced delimiters (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TracerTest, SavePicksFormatBySuffix) {
  Tracer t;
  t.enable(8);
  t.record(at_us(1), TraceEventKind::kFlowStart, 1);

  const std::string csv_path = ::testing::TempDir() + "trace_test_out.csv";
  ASSERT_TRUE(t.save(csv_path));
  std::ifstream csv{csv_path};
  std::string first;
  std::getline(csv, first);
  EXPECT_EQ(first, "time_ns,kind,a,b,value,label");
  std::remove(csv_path.c_str());

  const std::string json_path = ::testing::TempDir() + "trace_test_out.json";
  ASSERT_TRUE(t.save(json_path));
  std::ifstream json{json_path};
  std::getline(json, first);
  EXPECT_EQ(first.rfind("{\"displayTimeUnit\"", 0), 0u);
  std::remove(json_path.c_str());

  EXPECT_FALSE(t.save("/nonexistent-dir/trace.json"));
}

// ---- Indexed reads vs the copy-and-scan oracle -----------------------------

constexpr auto kLastKind = TraceEventKind::kJobEnd;
constexpr std::uint32_t kEntities = 6;

void expect_same_events(const std::vector<TraceEvent>& got,
                        const std::vector<TraceEvent>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].at, want[i].at) << what << " #" << i;
    EXPECT_EQ(got[i].kind, want[i].kind) << what << " #" << i;
    EXPECT_EQ(got[i].a, want[i].a) << what << " #" << i;
    EXPECT_EQ(got[i].b, want[i].b) << what << " #" << i;
    EXPECT_EQ(got[i].value, want[i].value) << what << " #" << i;
    EXPECT_EQ(got[i].label, want[i].label) << what << " #" << i;
  }
}

void expect_same_series(const TimeSeries& got, const TimeSeries& want,
                        const std::string& what) {
  EXPECT_EQ(got.name(), want.name()) << what;
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.points()[i].at, want.points()[i].at) << what << " #" << i;
    EXPECT_EQ(got.points()[i].value, want.points()[i].value) << what << " #" << i;
  }
}

/// Every kind x every entity in [0, kEntities) plus kTraceNoId: series and
/// events_of must equal the oracle's reads of the same tracer.
void expect_reads_match_oracle(const Tracer& t, const std::string& where) {
  for (int k = 0; k <= static_cast<int>(kLastKind); ++k) {
    const auto kind = static_cast<TraceEventKind>(k);
    for (std::uint32_t a = 0; a <= kEntities; ++a) {
      const std::uint32_t id = a == kEntities ? kTraceNoId : a;
      const std::string what = where + " kind " + std::string{to_string(kind)} + " a " +
                               std::to_string(id);
      expect_same_series(t.series(kind, id), reference::series(t, kind, id), what);
      expect_same_events(t.events_of(kind, id), reference::events_of(t, kind, id), what);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(TracerIndexTest, ReadsMatchOracleOverRandomTraces) {
  // Each seed interleaves records with reads, clears, disable/enable
  // toggles and capacity changes. The small capacities wrap; the two large
  // ones are never reached, so their rings are still growing.
  constexpr std::size_t kCapacities[] = {4, 8, 16, 2048, 1u << 20};
  constexpr TraceEventKind kKinds[] = {TraceEventKind::kQueueDepth,
                                       TraceEventKind::kLinkUtilization,
                                       TraceEventKind::kFlowStart, TraceEventKind::kLinkDown};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng{seed};
    Tracer t;
    t.enable(kCapacities[rng.uniform_index(std::size(kCapacities))]);
    std::int64_t now_us = 0;
    bool wrapped = false;
    for (int op = 0; op < 300; ++op) {
      const std::uint64_t roll = rng.uniform_index(100);
      if (roll < 70) {
        now_us += static_cast<std::int64_t>(rng.uniform_index(3));  // ties allowed
        const std::uint64_t e = rng.uniform_index(kEntities + 1);
        const std::uint32_t a = e == kEntities ? kTraceNoId : static_cast<std::uint32_t>(e);
        t.record(at_us(now_us), kKinds[rng.uniform_index(4)], a,
                 static_cast<std::uint32_t>(rng.uniform_index(4)),
                 rng.uniform_real(0.0, 1e6), rng.uniform_index(2) == 0 ? "x" : nullptr);
        wrapped |= t.dropped() > 0;
      } else if (roll < 88) {
        expect_reads_match_oracle(t, "seed " + std::to_string(seed) + " op " + std::to_string(op));
        if (HasFailure()) return;
      } else if (roll < 95) {
        if (t.enabled()) {
          t.disable();
        } else {
          t.enable(t.capacity());  // same capacity: keeps the events
        }
      } else {
        t.enable(kCapacities[rng.uniform_index(std::size(kCapacities))]);
      }
    }
    expect_reads_match_oracle(t, "seed " + std::to_string(seed) + " end");
    if (HasFailure()) return;
    EXPECT_TRUE(wrapped) << "seed " << seed << " never wrapped its ring";
  }
}

TEST(TracerIndexTest, ReenableWithNewCapacityRebuildsIndex) {
  // A re-enable with a new capacity followed by as many records leaves the
  // event count where it was; the index must still see the new events.
  Tracer t;
  t.enable(8);
  for (std::uint32_t i = 0; i < 5; ++i) {
    t.record(at_us(i), TraceEventKind::kQueueDepth, 1, kTraceNoId, 100.0 + i);
  }
  ASSERT_EQ(t.series(TraceEventKind::kQueueDepth, 1).size(), 5u);
  t.enable(16);
  for (std::uint32_t i = 0; i < 5; ++i) {
    t.record(at_us(10 + i), TraceEventKind::kQueueDepth, 2, kTraceNoId, 200.0 + i);
  }
  EXPECT_EQ(t.series(TraceEventKind::kQueueDepth, 1).size(), 0u);
  const TimeSeries two = t.series(TraceEventKind::kQueueDepth, 2);
  ASSERT_EQ(two.size(), 5u);
  EXPECT_EQ(two.points().front().at, at_us(10));
  EXPECT_DOUBLE_EQ(two.points().back().value, 204.0);
  expect_same_events(t.events_of(TraceEventKind::kQueueDepth, 2),
                     reference::events_of(t, TraceEventKind::kQueueDepth, 2), "after re-enable");
}

// ---- Ring storage that grows on demand -------------------------------------

/// Records events a = first .. first + n - 1 of alternating kinds.
void record_run(Tracer& t, std::uint32_t first, std::uint32_t n) {
  for (std::uint32_t i = first; i < first + n; ++i) {
    t.record(at_us(i), i % 2 == 0 ? TraceEventKind::kQueueDepth : TraceEventKind::kFlowStart,
             i % kEntities, i, static_cast<double>(i));
  }
}

TEST(TracerRingTest, WrapsExactlyAtCapacity) {
  // 3000 is past two growth steps and not a power of two, so the last step
  // stops at the capacity instead of doubling past it.
  constexpr std::uint32_t kCap = 3000;
  Tracer t;
  t.enable(kCap);
  record_run(t, 0, kCap);
  EXPECT_EQ(t.size(), kCap);
  EXPECT_EQ(t.dropped(), 0u);
  std::vector<TraceEvent> evs = t.events();
  ASSERT_EQ(evs.size(), kCap);
  for (std::uint32_t i = 0; i < kCap; ++i) ASSERT_EQ(evs[i].b, i) << "slot " << i;
  expect_reads_match_oracle(t, "full");

  record_run(t, kCap, 1);
  EXPECT_EQ(t.size(), kCap);
  EXPECT_EQ(t.capacity(), kCap);
  EXPECT_EQ(t.dropped(), 1u);
  evs = t.events();
  ASSERT_EQ(evs.size(), kCap);
  EXPECT_EQ(evs.front().b, 1u);  // event 0 was overwritten
  EXPECT_EQ(evs.back().b, kCap);
  expect_reads_match_oracle(t, "one past full");
}

TEST(TracerRingTest, GrowsThroughSeveralStepsWithoutReachingCapacity) {
  Tracer t;
  t.enable(1u << 20);
  std::uint32_t recorded = 0;
  for (const std::uint32_t upto : {1u, 1024u, 1025u, 5000u, 20'000u}) {
    record_run(t, recorded, upto - recorded);
    recorded = upto;
    EXPECT_EQ(t.size(), recorded);
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_EQ(t.capacity(), 1u << 20);
    const std::vector<TraceEvent> evs = t.events();
    ASSERT_EQ(evs.size(), recorded);
    for (std::uint32_t i = 0; i < recorded; ++i) ASSERT_EQ(evs[i].b, i) << "slot " << i;
    expect_reads_match_oracle(t, std::to_string(recorded) + " events");
  }
}

TEST(TracerRingTest, ReenableWithSmallerCapacityKeepsIndexReadsRight) {
  Tracer t;
  t.enable(4096);
  record_run(t, 0, 3000);
  expect_reads_match_oracle(t, "before");  // builds the index over 3000 slots
  t.enable(100);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.capacity(), 100u);
  EXPECT_EQ(t.series(TraceEventKind::kQueueDepth, 0).size(), 0u);
  record_run(t, 5000, 60);
  EXPECT_EQ(t.size(), 60u);
  expect_reads_match_oracle(t, "growing again");
  record_run(t, 5060, 190);
  EXPECT_EQ(t.size(), 100u);
  EXPECT_EQ(t.dropped(), 150u);
  EXPECT_EQ(t.events().front().b, 5150u);
  expect_reads_match_oracle(t, "wrapped");
}

TEST(TracerConcurrencyTest, ConstReadsFromTwoThreadsAgree) {
  // No read has built the index yet, so both threads race to build it;
  // CI runs this under TSan.
  Tracer t;
  t.enable(1024);
  for (std::uint32_t i = 0; i < 3000; ++i) {
    t.record(at_us(i), i % 2 == 0 ? TraceEventKind::kQueueDepth : TraceEventKind::kLinkUtilization,
             i % 7, kTraceNoId, static_cast<double>(i));
  }
  const Tracer& reader = t;
  std::vector<std::size_t> want(7);
  for (std::uint32_t a = 0; a < 7; ++a) {
    want[a] = reference::series(reader, TraceEventKind::kQueueDepth, a).size();
    ASSERT_GT(want[a], 0u);
  }
  std::vector<int> mismatches(2, 0);
  const auto work = [&](std::size_t who) {
    for (int round = 0; round < 50; ++round) {
      for (std::uint32_t a = 0; a < 7; ++a) {
        if (reader.series(TraceEventKind::kQueueDepth, a).size() != want[a]) ++mismatches[who];
        if (reader.events_of(TraceEventKind::kQueueDepth, a).size() != want[a]) ++mismatches[who];
      }
    }
  };
  std::thread other{work, std::size_t{1}};
  work(std::size_t{0});
  other.join();
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
}

}  // namespace
}  // namespace hpn::metrics
