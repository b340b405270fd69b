#include "ctrl/fabric_controller.h"

#include <gtest/gtest.h>

#include "topo/builders.h"

namespace hpn::ctrl {
namespace {

using topo::Cluster;
using topo::HpnConfig;

class FabricControllerHpnTest : public ::testing::Test {
 protected:
  Cluster c = topo::build_hpn(HpnConfig::tiny());
  sim::Simulator s;
  routing::Router r{c.topo};
  FabricController fc{c, s, r};
};

TEST_F(FabricControllerHpnTest, HealthyByDefault) {
  EXPECT_TRUE(fc.port_up(0, 0, 0));
  EXPECT_TRUE(fc.tx_usable(0, 0, 0));
  EXPECT_FALSE(fc.rx_blackholed(0, 0, 0));
  EXPECT_DOUBLE_EQ(fc.host_tx_fraction(0), 1.0);
  EXPECT_FALSE(fc.host_isolated(0));
}

TEST_F(FabricControllerHpnTest, AccessFailureDropsTopoLinkAndReroutes) {
  fc.fail_access(1, 0, 0);
  const auto& att = c.hosts[1].nics[0];
  EXPECT_FALSE(c.topo.is_up(att.access[0]));
  // Router converges onto the surviving ToR.
  const routing::Path p =
      r.trace(c.nic_of(0).nic, att.nic, routing::FiveTuple{.src_ip = 1, .dst_ip = 2});
  ASSERT_TRUE(p.valid());
  EXPECT_EQ(c.topo.link(p.links.back()).src, att.tor[1]);
}

TEST_F(FabricControllerHpnTest, DualPlaneBlackholeEndsAtHostPush) {
  fc.fail_access(1, 0, 0);
  // HPN dual-plane: no in-fabric detour in the dead plane, so the window is
  // the host-switch collaboration push.
  EXPECT_TRUE(fc.rx_blackholed(1, 0, 0));
  s.run_until(s.now() + fc.timings().host_push - Duration::millis(1));
  EXPECT_TRUE(fc.rx_blackholed(1, 0, 0));
  s.run_until(s.now() + Duration::millis(2));
  EXPECT_FALSE(fc.rx_blackholed(1, 0, 0));
}

TEST_F(FabricControllerHpnTest, HostFractionReflectsOneDeadPort) {
  fc.fail_access(1, 3, 1);
  // 16 ports per host; one dead -> 15/16 = 93.75% (the 6.25% of Fig 18a).
  EXPECT_NEAR(fc.host_tx_fraction(1), 15.0 / 16.0, 1e-12);
  EXPECT_FALSE(fc.host_isolated(1));
}

TEST_F(FabricControllerHpnTest, BothPortsDownIsolatesHost) {
  fc.fail_access(1, 3, 0);
  fc.fail_access(1, 3, 1);
  EXPECT_TRUE(fc.host_isolated(1));
  fc.repair_access(1, 3, 0);
  EXPECT_FALSE(fc.host_isolated(1));
}

TEST_F(FabricControllerHpnTest, RepairNeedsLacpRejoin) {
  fc.fail_access(1, 0, 0);
  s.run_until(TimePoint::at_nanos(Duration::seconds(1).as_nanos()));
  fc.repair_access(1, 0, 0);
  EXPECT_TRUE(fc.port_up(1, 0, 0));
  EXPECT_FALSE(fc.tx_usable(1, 0, 0));  // renegotiating
  s.run_until(s.now() + fc.timings().lacp_rejoin + Duration::millis(1));
  EXPECT_TRUE(fc.tx_usable(1, 0, 0));
  EXPECT_DOUBLE_EQ(fc.host_tx_fraction(1), 1.0);
}

TEST_F(FabricControllerHpnTest, FlapFailsThenAutoRepairs) {
  fc.flap_access(1, 0, 0, Duration::millis(500));
  EXPECT_FALSE(fc.port_up(1, 0, 0));
  s.run_until(TimePoint::at_nanos(Duration::millis(501).as_nanos()));
  EXPECT_TRUE(fc.port_up(1, 0, 0));
}

TEST_F(FabricControllerHpnTest, TorCrashKillsAllItsAccessPorts) {
  // ToR for segment 0, rail 0, plane 0 serves 4 hosts.
  const NodeId tor = c.hosts[0].nics[0].tor[0];
  fc.fail_tor(tor);
  for (int h = 0; h < 4; ++h) {
    EXPECT_FALSE(fc.port_up(h, 0, 0)) << "host " << h;
    EXPECT_TRUE(fc.port_up(h, 0, 1));
    EXPECT_FALSE(fc.host_isolated(h));  // dual-ToR keeps hosts reachable
  }
  fc.repair_tor(tor);
  EXPECT_TRUE(fc.port_up(0, 0, 0));
}

TEST_F(FabricControllerHpnTest, HostBlackholeQuery) {
  EXPECT_FALSE(fc.host_in_blackhole(1));
  fc.fail_access(1, 0, 0);
  EXPECT_TRUE(fc.host_in_blackhole(1));
  s.run_until(s.now() + fc.timings().host_push + Duration::millis(1));
  EXPECT_FALSE(fc.host_in_blackhole(1));
}

TEST(FabricControllerDcn, TypicalClosConvergesInBgpWindow) {
  // DCN+ has an in-fabric detour (Agg reaches both ToRs of the pair), so
  // ingress convergence is BGP-paced, faster than the host push here.
  Cluster c = topo::build_dcn_plus(topo::DcnPlusConfig::paper_pod());
  sim::Simulator s;
  routing::Router r{c.topo};
  FabricController fc{c, s, r};
  fc.fail_access(0, 0, 0);
  const Duration bgp_window = fc.timings().arp_withdraw + fc.timings().bgp_hop * 2.0;
  EXPECT_TRUE(fc.rx_blackholed(0, 0, 0));
  s.run_until(TimePoint::origin() + bgp_window + Duration::millis(1));
  EXPECT_FALSE(fc.rx_blackholed(0, 0, 0));
}

TEST(FabricControllerArpProxy, L2BlackholeWithoutProxyLastsMacAging) {
  Cluster c = topo::build_hpn(HpnConfig::tiny());
  sim::Simulator s;
  routing::Router r{c.topo};
  FabricController no_proxy{c, s, r, CtrlTimings{}, /*arp_proxy=*/false};
  no_proxy.fail_access(1, 0, 0);
  // Intra-segment senders: stale MAC entry until aging (5 minutes).
  s.run_until(TimePoint::origin() + Duration::seconds(10));
  EXPECT_TRUE(no_proxy.rx_blackholed(1, 0, 0, /*src_same_segment=*/true));
  EXPECT_FALSE(no_proxy.rx_blackholed(1, 0, 0, /*src_same_segment=*/false) &&
               s.now() > TimePoint::origin() + Duration::seconds(1));
  s.run_until(TimePoint::origin() + Duration::minutes(5) + Duration::millis(1));
  EXPECT_FALSE(no_proxy.rx_blackholed(1, 0, 0, /*src_same_segment=*/true));
}

TEST(FabricControllerArpProxy, ProxyMakesIntraSegmentConvergeFast) {
  Cluster c = topo::build_hpn(HpnConfig::tiny());
  sim::Simulator s;
  routing::Router r{c.topo};
  FabricController with_proxy{c, s, r, CtrlTimings{}, /*arp_proxy=*/true};
  with_proxy.fail_access(1, 0, 0);
  s.run_until(TimePoint::origin() + with_proxy.timings().arp_withdraw + Duration::millis(1));
  EXPECT_FALSE(with_proxy.rx_blackholed(1, 0, 0, /*src_same_segment=*/true));
}

TEST(FabricControllerSingleTor, FailureIsolatesHost) {
  auto cfg = HpnConfig::tiny();
  cfg.dual_tor = false;
  Cluster c = topo::build_hpn(cfg);
  sim::Simulator s;
  routing::Router r{c.topo};
  FabricController fc{c, s, r};
  fc.fail_access(1, 0, 0);
  EXPECT_TRUE(fc.host_isolated(1)) << "single-ToR: the rail has no surviving port";
}

}  // namespace
}  // namespace hpn::ctrl
