#include "flowsim/fluid.h"

#include <gtest/gtest.h>

#include <string>

#include "topo/topology.h"

namespace hpn::flowsim {
namespace {

using metrics::TraceEvent;
using topo::LinkKind;
using topo::NodeKind;
using topo::Topology;

class FluidTest : public ::testing::Test {
 protected:
  Topology t;
  sim::Simulator s;
  LinkId hot{}, cold{};

  void SetUp() override {
    const NodeId a = t.add_node(NodeKind::kNic, "a");
    const NodeId b = t.add_node(NodeKind::kTor, "b");
    const NodeId c = t.add_node(NodeKind::kNic, "c");
    hot = t.add_duplex_link(a, b, LinkKind::kAccess, Bandwidth::gbps(200), Duration::micros(1))
              .forward;
    cold = t.add_duplex_link(b, c, LinkKind::kAccess, Bandwidth::gbps(200), Duration::micros(1))
               .forward;
  }
};

TEST_F(FluidTest, SingleFlowReachesLineRateNoQueue) {
  FluidSimulator fl{t, s};
  const FlowId f = fl.start_flow({hot, cold}, Bandwidth::gbps(200));
  s.run_for(Duration::millis(100));
  EXPECT_NEAR(fl.flow_rate(f).as_gbps(), 200.0, 5.0);
  // A single flow at its cap cannot overrun the equal-capacity link.
  EXPECT_LT(fl.queue_of(hot).as_kilobytes(), 15.0);
}

TEST_F(FluidTest, OverloadedLinkBuildsStandingQueue) {
  FluidSimulator fl{t, s};
  fl.start_flow({hot}, Bandwidth::gbps(200));
  fl.start_flow({hot}, Bandwidth::gbps(200));
  s.run_for(Duration::millis(200));
  // Delivered rate pinned at capacity; ECN holds a standing queue above
  // kmin but flows keep the link full.
  EXPECT_NEAR(fl.delivered_rate(hot).as_gbps(), 200.0, 5.0);
  EXPECT_GT(fl.queue_of(hot).as_kilobytes(), 10.0);
  EXPECT_LT(fl.queue_of(hot).as_megabytes(), 1.1);
}

TEST_F(FluidTest, MoreContentionMeansLongerQueue) {
  FluidSimulator fl2{t, s};
  fl2.start_flow({hot}, Bandwidth::gbps(200));
  fl2.start_flow({hot}, Bandwidth::gbps(200));
  s.run_for(Duration::millis(200));
  const double q2 = fl2.queue_of(hot).as_kilobytes();
  fl2.start_flow({hot}, Bandwidth::gbps(200));
  fl2.start_flow({hot}, Bandwidth::gbps(200));
  s.run_for(Duration::millis(300));
  const double q4 = fl2.queue_of(hot).as_kilobytes();
  EXPECT_GT(q4, q2 * 1.2) << "doubling the elephants should deepen the queue";
}

TEST_F(FluidTest, FiniteFlowCompletes) {
  FluidSimulator fl{t, s};
  bool done = false;
  // 2.5 GB at 200 Gbps ~ 0.1 s.
  fl.start_flow({hot, cold}, Bandwidth::gbps(200), DataSize::gigabytes(2.5),
                [&](FlowId) { done = true; });
  s.run_for(Duration::millis(300));
  EXPECT_TRUE(done);
  EXPECT_EQ(fl.active_flows(), 0u);
}

TEST_F(FluidTest, StopFlowDrainsQueue) {
  FluidSimulator fl{t, s};
  const FlowId a = fl.start_flow({hot}, Bandwidth::gbps(200));
  const FlowId b = fl.start_flow({hot}, Bandwidth::gbps(200));
  s.run_for(Duration::millis(200));
  EXPECT_GT(fl.queue_of(hot).as_kilobytes(), 10.0);
  EXPECT_TRUE(fl.stop_flow(a));
  EXPECT_TRUE(fl.stop_flow(b));
  // Keep one light flow alive so the engine keeps ticking and draining.
  fl.start_flow({cold}, Bandwidth::gbps(1));
  s.run_for(Duration::millis(100));
  EXPECT_LT(fl.queue_of(hot).as_kilobytes(), 1.0);
}

TEST_F(FluidTest, GoodputScalesUnderOverload) {
  FluidSimulator fl{t, s};
  const FlowId a = fl.start_flow({hot}, Bandwidth::gbps(200));
  const FlowId b = fl.start_flow({hot}, Bandwidth::gbps(200));
  s.run_for(Duration::millis(100));
  const double sum = fl.flow_goodput(a).as_gbps() + fl.flow_goodput(b).as_gbps();
  EXPECT_LE(sum, 205.0);
  EXPECT_GT(sum, 150.0);
}

TEST_F(FluidTest, IdleEngineStopsTicking) {
  FluidSimulator fl{t, s};
  bool done = false;
  fl.start_flow({hot}, Bandwidth::gbps(200), DataSize::megabytes(250), [&](FlowId) { done = true; });
  s.run();  // must terminate: timer disarms once no flows remain
  EXPECT_TRUE(done);
  EXPECT_EQ(fl.active_flows(), 0u);
}

TEST_F(FluidTest, EmptyPathRejected) {
  FluidSimulator fl{t, s};
  EXPECT_THROW(fl.start_flow({}, Bandwidth::gbps(1)), CheckError);
}

TEST_F(FluidTest, RejectedPathLeavesNoState) {
  // A path is checked whole before any hop is stored: a stray hop would
  // shift the spans of the flows started after it.
  FluidSimulator fl{t, s};
  EXPECT_THROW(fl.start_flow({hot, LinkId{999}}, Bandwidth::gbps(1)), CheckError);
  EXPECT_EQ(fl.active_flows(), 0u);
  fl.start_flow({cold}, Bandwidth::gbps(1));
  s.run_for(Duration::millis(1));
  fl.start_flow({hot}, Bandwidth::gbps(1));
  s.run_for(Duration::millis(1));
  EXPECT_EQ(fl.arrival_rate(cold).as_bits_per_sec(), 1e9);
  EXPECT_EQ(fl.arrival_rate(hot).as_bits_per_sec(), 1e9);
}

TEST_F(FluidTest, QueueOfUnknownLinkIsZero) {
  FluidSimulator fl{t, s};
  EXPECT_EQ(fl.queue_of(LinkId{999}).as_bits(), 0);
}

TEST_F(FluidTest, LinkAccessorsAreZeroForUnusedAndInvalidLinks) {
  FluidSimulator fl{t, s};
  fl.start_flow({hot}, Bandwidth::gbps(200));
  fl.start_flow({hot}, Bandwidth::gbps(200));
  s.run_for(Duration::millis(10));
  ASSERT_GT(fl.arrival_rate(hot).as_gbps(), 0.0);
  // `cold` exists in the topology but no flow has crossed it; LinkId{999}
  // is past every link; invalid() is the sentinel id.
  for (const LinkId l : {cold, LinkId{999}, LinkId::invalid()}) {
    EXPECT_EQ(fl.queue_of(l).as_bits(), 0) << l;
    EXPECT_EQ(fl.arrival_rate(l).as_bits_per_sec(), 0.0) << l;
    EXPECT_EQ(fl.delivered_rate(l).as_bits_per_sec(), 0.0) << l;
  }
}

TEST(FluidSampleOrderTest, TickSamplesAreInAscendingLinkIdOrder) {
  // Flows touch links in a scrambled order; every sampled tick must still
  // record its per-link samples in ascending LinkId order, queue depth
  // before utilization for each link.
  Topology t;
  sim::Simulator s;
  const NodeId tor = t.add_node(NodeKind::kTor, "tor");
  std::vector<LinkId> up;
  for (int i = 0; i < 6; ++i) {
    const NodeId nic = t.add_node(NodeKind::kNic, "nic" + std::to_string(i));
    up.push_back(t.add_duplex_link(nic, tor, LinkKind::kAccess, Bandwidth::gbps(200),
                                   Duration::micros(1))
                     .forward);
  }
  s.tracer().enable(1u << 12);
  s.tracer().watch_all_links(true);
  FluidSimulator fl{t, s};
  for (const std::size_t i : {3u, 0u, 5u, 1u, 4u, 2u}) {
    fl.start_flow({up[i]}, Bandwidth::gbps(100));
  }
  s.run_for(Duration::millis(1));

  std::size_t ticks = 0;
  std::vector<TraceEvent> tick_samples;
  const auto check_tick = [&] {
    if (tick_samples.empty()) return;
    ++ticks;
    ASSERT_EQ(tick_samples.size(), 2 * up.size());
    for (std::size_t i = 0; i < tick_samples.size(); ++i) {
      const std::uint32_t link = static_cast<std::uint32_t>(up[i / 2].value());
      EXPECT_EQ(tick_samples[i].a, link) << "tick " << ticks << " sample " << i;
      EXPECT_EQ(tick_samples[i].kind, i % 2 == 0 ? metrics::TraceEventKind::kQueueDepth
                                                 : metrics::TraceEventKind::kLinkUtilization);
    }
    tick_samples.clear();
  };
  for (const TraceEvent& ev : s.tracer().events()) {
    if (ev.kind != metrics::TraceEventKind::kQueueDepth &&
        ev.kind != metrics::TraceEventKind::kLinkUtilization) {
      continue;
    }
    if (!tick_samples.empty() && tick_samples.back().at != ev.at) check_tick();
    tick_samples.push_back(ev);
  }
  check_tick();
  EXPECT_EQ(ticks, 10u);  // 1 ms of 100 us ticks
}

}  // namespace
}  // namespace hpn::flowsim
