#include "flowsim/session.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "metrics/trace.h"
#include "topo/topology.h"

namespace hpn::flowsim {
namespace {

using topo::LinkKind;
using topo::NodeKind;
using topo::Topology;

class SessionTest : public ::testing::Test {
 protected:
  Topology t;
  sim::Simulator s;
  LinkId ab{}, bc{};

  void SetUp() override {
    const NodeId a = t.add_node(NodeKind::kNic, "a");
    const NodeId b = t.add_node(NodeKind::kTor, "b");
    const NodeId c = t.add_node(NodeKind::kNic, "c");
    ab = t.add_duplex_link(a, b, LinkKind::kAccess, Bandwidth::gbps(1), Duration::micros(1))
             .forward;
    bc = t.add_duplex_link(b, c, LinkKind::kAccess, Bandwidth::gbps(1), Duration::micros(1))
             .forward;
  }
};

TEST_F(SessionTest, SingleFlowFinishesAtExactTime) {
  FlowSession fs{t, s};
  TimePoint done = TimePoint::far_future();
  fs.start_flow({ab, bc}, DataSize::gigabytes(0.125) /* 1 Gbit */, Bandwidth::gbps(10),
                [&](FlowId) { done = s.now(); });
  s.run();
  EXPECT_NEAR((done - TimePoint::origin()).as_seconds(), 1.0, 1e-6);
  EXPECT_EQ(fs.active_flows(), 0u);
}

TEST_F(SessionTest, CapLimitsRate) {
  FlowSession fs{t, s};
  TimePoint done;
  fs.start_flow({ab}, DataSize::bits(500'000'000), Bandwidth::gbps(0.5),
                [&](FlowId) { done = s.now(); });
  s.run();
  EXPECT_NEAR((done - TimePoint::origin()).as_seconds(), 1.0, 1e-6);
}

TEST_F(SessionTest, TwoFlowsShareThenSpeedUp) {
  // A: 2 Gbit, B: 1 Gbit on a 1 Gbps link. Both run at 0.5 until B ends at
  // t=2s; A then runs at 1.0 and ends at t=3s.
  FlowSession fs{t, s};
  TimePoint a_done, b_done;
  const FlowId a = fs.start_flow({ab}, DataSize::bits(2'000'000'000), Bandwidth::gbps(10),
                                 [&](FlowId) { a_done = s.now(); });
  fs.start_flow({ab}, DataSize::bits(1'000'000'000), Bandwidth::gbps(10),
                [&](FlowId) { b_done = s.now(); });
  s.run_until(TimePoint::at_nanos(1'000'000'000));
  EXPECT_NEAR(fs.rate_of(a)->as_gbps(), 0.5, 1e-9);
  s.run();
  EXPECT_NEAR((b_done - TimePoint::origin()).as_seconds(), 2.0, 1e-6);
  EXPECT_NEAR((a_done - TimePoint::origin()).as_seconds(), 3.0, 1e-6);
}

TEST_F(SessionTest, ZeroSizeCompletesImmediately) {
  FlowSession fs{t, s};
  bool done = false;
  fs.start_flow({ab}, DataSize::zero(), Bandwidth::gbps(1), [&](FlowId) { done = true; });
  s.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(s.now(), TimePoint::origin());
}

TEST_F(SessionTest, CompletionCanChainFlows) {
  FlowSession fs{t, s};
  TimePoint second_done;
  fs.start_flow({ab}, DataSize::bits(1'000'000'000), Bandwidth::gbps(10), [&](FlowId) {
    fs.start_flow({bc}, DataSize::bits(1'000'000'000), Bandwidth::gbps(10),
                  [&](FlowId) { second_done = s.now(); });
  });
  s.run();
  EXPECT_NEAR((second_done - TimePoint::origin()).as_seconds(), 2.0, 1e-6);
}

TEST_F(SessionTest, AbortStopsFlowWithoutCallback) {
  FlowSession fs{t, s};
  bool fired = false;
  const FlowId id =
      fs.start_flow({ab}, DataSize::gigabytes(100), Bandwidth::gbps(10), [&](FlowId) { fired = true; });
  s.schedule_after(Duration::seconds(1.0), [&] { EXPECT_TRUE(fs.abort_flow(id)); });
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(fs.active_flows(), 0u);
  EXPECT_FALSE(fs.abort_flow(id));
}

TEST_F(SessionTest, AbortFreesBandwidthForOthers) {
  FlowSession fs{t, s};
  TimePoint b_done;
  const FlowId a = fs.start_flow({ab}, DataSize::gigabytes(100), Bandwidth::gbps(10));
  fs.start_flow({ab}, DataSize::bits(1'500'000'000), Bandwidth::gbps(10),
                [&](FlowId) { b_done = s.now(); });
  // B runs at 0.5 for 1s (0.5 Gbit moved), then alone at 1.0 for 1s more.
  s.schedule_after(Duration::seconds(1.0), [&] { fs.abort_flow(a); });
  s.run();
  EXPECT_NEAR((b_done - TimePoint::origin()).as_seconds(), 2.0, 1e-6);
}

TEST_F(SessionTest, ThroughputOnLinkTracksRates) {
  FlowSession fs{t, s};
  fs.start_flow({ab, bc}, DataSize::gigabytes(10), Bandwidth::gbps(10));
  fs.start_flow({ab}, DataSize::gigabytes(10), Bandwidth::gbps(10));
  s.run_until(TimePoint::at_nanos(1000));
  EXPECT_NEAR(fs.throughput_on(ab).as_gbps(), 1.0, 1e-9);
  EXPECT_NEAR(fs.throughput_on(bc).as_gbps(), 0.5, 1e-9);
}

TEST_F(SessionTest, SimultaneousStartsBatchIntoOneAllocation) {
  FlowSession fs{t, s};
  std::vector<FlowId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(fs.start_flow({ab}, DataSize::gigabytes(1), Bandwidth::gbps(10)));
  }
  s.run_until(TimePoint::at_nanos(10));
  for (const FlowId id : ids) EXPECT_NEAR(fs.rate_of(id)->as_gbps(), 0.25, 1e-9);
}

TEST_F(SessionTest, DeliveredTotalAccumulates) {
  FlowSession fs{t, s};
  fs.start_flow({ab}, DataSize::bits(1'000'000'000), Bandwidth::gbps(10));
  s.run();
  EXPECT_NEAR(static_cast<double>(fs.delivered_total().as_bits()), 1e9, 1e3);
}

TEST(SessionDelivered, ExactWhenAFlowFinishesBetweenSettles) {
  // A: 1000 bits at 300 Gbps drains at 3.33 ns, but its completion event
  // fires at 5 ns (rounded up, plus one). B's start settles the session at
  // 2 ns, in between. Delivered must be exactly the sizes, never rate x the
  // elapsed time (that would report 1500 bits for A).
  Topology t;
  const NodeId a = t.add_node(NodeKind::kNic, "a");
  const NodeId b = t.add_node(NodeKind::kTor, "b");
  const LinkId fast =
      t.add_duplex_link(a, b, LinkKind::kAccess, Bandwidth::gbps(400), Duration::micros(1))
          .forward;
  const LinkId back =
      t.add_duplex_link(b, a, LinkKind::kAccess, Bandwidth::gbps(400), Duration::micros(1))
          .forward;
  sim::Simulator s;
  FlowSession fs{t, s};
  fs.start_flow({fast}, DataSize::bits(1000), Bandwidth::gbps(300));
  s.schedule_at(TimePoint::at_nanos(2),
                [&] { fs.start_flow({back}, DataSize::bits(7), Bandwidth::gbps(100)); });
  s.run();
  EXPECT_EQ(fs.active_flows(), 0u);
  EXPECT_EQ(fs.delivered_total().as_bits(), 1007);
}

TEST_F(SessionTest, DeliveredTotalKeepsAbortedFlowsServedBits) {
  FlowSession fs{t, s};
  const FlowId id = fs.start_flow({ab}, DataSize::bits(1'000'000), Bandwidth::gbps(10));
  s.schedule_at(TimePoint::at_nanos(400), [&] { fs.abort_flow(id); });
  s.run();
  EXPECT_EQ(fs.delivered_total().as_bits(), 400);  // 400 ns at the 1 Gbps link
}

TEST_F(SessionTest, StatsCountTheWorkOfFlowsSharingOnePath) {
  // Four same-(path, cap) flows with distinct sizes: each completion re-rates
  // every survivor, so the re-rates sum to 4 + 3 + 2 + 1.
  FlowSession fs{t, s};
  for (int i = 1; i <= 4; ++i) {
    fs.start_flow({ab, bc}, DataSize::bits(i * 1'000'000), Bandwidth::gbps(10));
  }
  s.run();
  const FlowSession::Stats& st = fs.stats();
  EXPECT_EQ(st.completions, 4u);
  EXPECT_EQ(st.recomputes, 5u);        // the start batch + one per completion
  EXPECT_EQ(st.classes_rerated, 10u);  // 4 after the starts, then 3, 2, 1
  // 4 joins + 10 re-rates + 4 drains.
  EXPECT_EQ(st.heap_updates, 18u);
}

TEST_F(SessionTest, TraceRecordsCompletedFlows) {
  // The simulator's tracer holds the session's flow lifecycle: one kFlowStart
  // (size in bytes) and one kFlowFinish (FCT in seconds) per completed flow.
  s.tracer().enable(64);
  FlowSession fs{t, s};
  const FlowId longer = fs.start_flow({ab}, DataSize::bits(1'000'000'000), Bandwidth::gbps(10));
  const FlowId shorter =
      fs.start_flow({ab, bc}, DataSize::bits(500'000'000), Bandwidth::gbps(10));
  s.run();
  const auto starts = s.tracer().events_of(metrics::TraceEventKind::kFlowStart);
  const auto finishes = s.tracer().events_of(metrics::TraceEventKind::kFlowFinish);
  ASSERT_EQ(starts.size(), 2u);
  ASSERT_EQ(finishes.size(), 2u);
  EXPECT_TRUE(s.tracer().events_of(metrics::TraceEventKind::kFlowAbort).empty());
  // The two share `ab` at 0.5 Gbps until the shorter one drains at 1 s; the
  // longer one then has 0.5 Gbit left at 1 Gbps.
  EXPECT_EQ(finishes[0].a, shorter.value());
  EXPECT_EQ(finishes[1].a, longer.value());
  EXPECT_NEAR(finishes[0].value, 1.0, 1e-6);
  EXPECT_NEAR(finishes[1].value, 1.5, 1e-6);
  for (const metrics::TraceEvent& f : finishes) {
    const auto start = std::find_if(starts.begin(), starts.end(),
                                    [&](const metrics::TraceEvent& e) { return e.a == f.a; });
    ASSERT_NE(start, starts.end());
    EXPECT_GT(f.value, 0.0);
    EXPECT_DOUBLE_EQ((f.at - start->at).as_seconds(), f.value);
    const double avg_gbps = start->value * 8.0 / f.value / 1e9;
    EXPECT_GT(avg_gbps, 0.0);
    EXPECT_LE(avg_gbps, 1.0 + 1e-6);
  }
}

TEST_F(SessionTest, TraceMarksAborted) {
  // An aborted flow leaves a kFlowAbort carrying its undelivered bits and no
  // kFlowFinish.
  s.tracer().enable(64);
  FlowSession fs{t, s};
  const FlowId id = fs.start_flow({ab}, DataSize::gigabytes(100), Bandwidth::gbps(10));
  s.run_until(TimePoint::at_nanos(1'000'000));
  ASSERT_TRUE(fs.abort_flow(id));
  s.run();
  EXPECT_TRUE(s.tracer().events_of(metrics::TraceEventKind::kFlowFinish).empty());
  const auto aborts = s.tracer().events_of(metrics::TraceEventKind::kFlowAbort);
  ASSERT_EQ(aborts.size(), 1u);
  EXPECT_EQ(aborts[0].a, id.value());
  EXPECT_EQ(aborts[0].at, TimePoint::at_nanos(1'000'000));
  // 1 ms at the 1 Gbps link delivered 1 Mbit of 800 Gbit.
  EXPECT_DOUBLE_EQ(aborts[0].value, 800e9 - 1e6);
}

TEST_F(SessionTest, RateOfUnknownFlowIsNullopt) {
  FlowSession fs{t, s};
  EXPECT_FALSE(fs.rate_of(FlowId{404}).has_value());
  EXPECT_FALSE(fs.remaining_of(FlowId{404}).has_value());
}

}  // namespace
}  // namespace hpn::flowsim
