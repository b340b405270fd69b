#include "fault/failure_injector.h"

#include <gtest/gtest.h>

#include "tests/support/fault_plan.h"
#include "topo/builders.h"

namespace hpn::fault {
namespace {

using topo::Cluster;
using topo::HpnConfig;

struct Rig {
  Cluster c = topo::build_hpn(HpnConfig::tiny());
  sim::Simulator s;
  routing::Router r{c.topo};
  ctrl::FabricController fabric{c, s, r};
};

TEST(FailureInjector, PlanDrawsScaleWithHorizon) {
  Rig rig;
  FailureInjector inj{rig.c, 42};
  // Tiny cluster (128 access links): a month sees roughly 0.057% x 128
  // link failures — usually none; a thousand months sees plenty.
  const auto long_plan = inj.draw_plan(Duration::hours(30.0 * 24.0 * 1000), Duration::minutes(5));
  int fails = 0, flaps = 0;
  for (const auto& e : long_plan) {
    fails += e.kind == InjectionPlanEntry::Kind::kLinkFail;
    flaps += e.kind == InjectionPlanEntry::Kind::kLinkFlap;
  }
  EXPECT_GT(fails, 10);
  EXPECT_GT(flaps, 10);
}

TEST(FailureInjector, DeterministicForSeed) {
  Rig a, b;
  FailureInjector ia{a.c, 7};
  FailureInjector ib{b.c, 7};
  const auto pa = ia.draw_plan(Duration::hours(24.0 * 365), Duration::minutes(1));
  const auto pb = ib.draw_plan(Duration::hours(24.0 * 365), Duration::minutes(1));
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].at, pb[i].at);
    EXPECT_EQ(pa[i].host, pb[i].host);
  }
}

TEST(FailureInjector, ScheduledFailureHitsFabric) {
  Rig rig;
  std::vector<InjectionPlanEntry> plan{
      {InjectionPlanEntry::Kind::kLinkFail, TimePoint::at_nanos(Duration::seconds(5).as_nanos()),
       0, 0, 0, NodeId::invalid(), Duration::seconds(10)},
  };
  EXPECT_EQ(testsupport::schedule_plan(rig.s, rig.fabric, plan), 1);
  rig.s.run_until(TimePoint::at_nanos(Duration::seconds(6).as_nanos()));
  EXPECT_FALSE(rig.fabric.port_up(0, 0, 0));
  rig.s.run_until(TimePoint::at_nanos(Duration::seconds(16).as_nanos()));
  EXPECT_TRUE(rig.fabric.port_up(0, 0, 0));
}

TEST(FailureInjector, TorCrashScheduling) {
  Rig rig;
  const NodeId tor = rig.c.hosts[0].nics[0].tor[0];
  std::vector<InjectionPlanEntry> plan{
      {InjectionPlanEntry::Kind::kTorCrash, TimePoint::at_nanos(Duration::seconds(1).as_nanos()),
       -1, -1, -1, tor, Duration::zero()},
  };
  testsupport::schedule_plan(rig.s, rig.fabric, plan);
  rig.s.run_until(TimePoint::at_nanos(Duration::seconds(2).as_nanos()));
  EXPECT_FALSE(rig.fabric.port_up(0, 0, 0));
  EXPECT_FALSE(rig.fabric.host_isolated(0));  // dual-ToR: plane 1 alive
}

TEST(FailureInjector, FlapAutoRepairs) {
  Rig rig;
  std::vector<InjectionPlanEntry> plan{
      {InjectionPlanEntry::Kind::kLinkFlap, TimePoint::at_nanos(Duration::seconds(1).as_nanos()),
       2, 1, 0, NodeId::invalid(), Duration::seconds(2)},
  };
  testsupport::schedule_plan(rig.s, rig.fabric, plan);
  rig.s.run_until(TimePoint::at_nanos(Duration::millis(1500).as_nanos()));
  EXPECT_FALSE(rig.fabric.port_up(2, 1, 0));
  rig.s.run_until(TimePoint::at_nanos(Duration::seconds(4).as_nanos()));
  EXPECT_TRUE(rig.fabric.port_up(2, 1, 0));
}

}  // namespace
}  // namespace hpn::fault
