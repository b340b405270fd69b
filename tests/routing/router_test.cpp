#include "routing/router.h"

#include <gtest/gtest.h>

#include <set>

#include "tests/support/reference_router.h"
#include "topo/builders.h"

namespace hpn::routing {
namespace {

using topo::Cluster;
using topo::HpnConfig;
using topo::LinkKind;
using topo::NodeKind;

FiveTuple tuple_for(const Cluster& c, int src_rank, int dst_rank, std::uint16_t sport = 1000) {
  return FiveTuple{.src_ip = c.nic_of(src_rank).nic.value(),
                   .dst_ip = c.nic_of(dst_rank).nic.value(),
                   .src_port = sport};
}

class RouterHpnTest : public ::testing::Test {
 protected:
  Cluster c = topo::build_hpn(HpnConfig::tiny());
  Router r{c.topo};
};

TEST_F(RouterHpnTest, SameRailSameSegmentIsTwoHops) {
  // h0 rail0 -> h1 rail0: NIC -> ToR -> NIC.
  const NodeId src = c.nic_of(0 * 8 + 0).nic;
  const NodeId dst = c.nic_of(1 * 8 + 0).nic;
  EXPECT_EQ(r.distance(src, dst), 2);
}

TEST_F(RouterHpnTest, CrossSegmentSameRailIsFourHops) {
  // Segment 0 host 0 -> segment 1 host 4: NIC -> ToR -> Agg -> ToR -> NIC.
  const NodeId src = c.nic_of(0 * 8 + 0).nic;
  const NodeId dst = c.nic_of(4 * 8 + 0).nic;
  EXPECT_EQ(r.distance(src, dst), 4);
}

TEST_F(RouterHpnTest, NicEcmpGroupIsTheDualTorBond) {
  const NodeId src = c.nic_of(0).nic;
  const NodeId dst = c.nic_of(8).nic;
  const auto group = r.ecmp_links(src, dst);
  ASSERT_EQ(group.size(), 2u);
  for (const LinkId l : group) {
    EXPECT_EQ(c.topo.link(l).kind, LinkKind::kAccess);
  }
}

TEST_F(RouterHpnTest, EndpointsDoNotTransit) {
  // Cross-rail NICs on the same host must not be "2 hops via the GPU":
  // the network path crosses ToR -> Agg -> ToR.
  const NodeId nic_r0 = c.nic_of(0).nic;
  const NodeId nic_r1 = c.nic_of(1).nic;
  EXPECT_EQ(r.distance(nic_r0, nic_r1), 4);
}

TEST_F(RouterHpnTest, TraceReachesDestination) {
  const NodeId src = c.nic_of(0).nic;
  const NodeId dst = c.nic_of(4 * 8).nic;
  const Path p = r.trace(src, dst, tuple_for(c, 0, 4 * 8));
  ASSERT_TRUE(p.valid());
  EXPECT_EQ(p.hops(), 4u);
  EXPECT_EQ(c.topo.link(p.links.back()).dst, dst);
  // Consecutive links chain.
  for (std::size_t i = 1; i < p.links.size(); ++i) {
    EXPECT_EQ(c.topo.link(p.links[i - 1]).dst, c.topo.link(p.links[i]).src);
  }
}

TEST_F(RouterHpnTest, DualPlanePinsThePath) {
  // Once the NIC picks port p, every fabric hop stays in plane p (§6.1:
  // "once a flow enters one of the uplinks in the ToR, its forwarding path
  // inside the Pod is completely determined" — plane-wise).
  for (int plane = 0; plane < 2; ++plane) {
    const auto& att = c.nic_of(0);
    const NodeId dst = c.nic_of(4 * 8).nic;
    for (std::uint16_t sport = 0; sport < 50; ++sport) {
      const Path p =
          r.trace_via(att.access[static_cast<std::size_t>(plane)], dst, tuple_for(c, 0, 32, sport));
      ASSERT_TRUE(p.valid());
      for (const LinkId l : p.links) {
        const auto& link = c.topo.link(l);
        const auto& src_n = c.topo.node(link.src);
        const auto& dst_n = c.topo.node(link.dst);
        if (src_n.kind == NodeKind::kTor || src_n.kind == NodeKind::kAgg) {
          EXPECT_EQ(src_n.loc.plane, plane);
        }
        if (dst_n.kind == NodeKind::kTor || dst_n.kind == NodeKind::kAgg) {
          EXPECT_EQ(dst_n.loc.plane, plane);
        }
      }
    }
  }
}

TEST_F(RouterHpnTest, DualPlaneDeterministicDownstream) {
  // In dual-plane there is exactly one same-plane ToR serving the dst NIC,
  // so the Agg has no downstream hash choice — the Fig 13b evenness.
  const NodeId dst = c.nic_of(4 * 8).nic;
  const NodeId agg = c.aggs.front();
  const auto group = r.ecmp_links(agg, dst);
  EXPECT_EQ(group.size(), 1u);
}

TEST_F(RouterHpnTest, FailedAccessLinkConvergesToOtherTor) {
  const auto& att = c.nic_of(8);  // dst NIC (rank 8 = host1 rail0)
  const NodeId src = c.nic_of(0).nic;
  const NodeId dst = att.nic;
  // Kill port 0's access cable (both directions).
  c.topo.set_duplex_up(att.access[0], false);
  r.invalidate();
  EXPECT_EQ(r.distance(src, dst), 2);  // still reachable via plane 1
  for (std::uint16_t sport = 0; sport < 20; ++sport) {
    const Path p = r.trace(src, dst, tuple_for(c, 0, 8, sport));
    ASSERT_TRUE(p.valid());
    EXPECT_EQ(c.topo.link(p.links.back()).src, att.tor[1]);
  }
}

TEST_F(RouterHpnTest, IsolationWhenBothAccessLinksFail) {
  const auto& att = c.nic_of(8);
  c.topo.set_duplex_up(att.access[0], false);
  c.topo.set_duplex_up(att.access[1], false);
  r.invalidate();
  EXPECT_EQ(r.distance(c.nic_of(0).nic, att.nic), -1);
  EXPECT_FALSE(r.trace(c.nic_of(0).nic, att.nic, tuple_for(c, 0, 8)).valid());
}

TEST_F(RouterHpnTest, InvalidateBumpsEpochAndClearsCache) {
  (void)r.distance(c.nic_of(0).nic, c.nic_of(8).nic);
  EXPECT_GT(r.cached_destinations(), 0u);
  const auto e0 = r.epoch();
  r.invalidate();
  EXPECT_EQ(r.cached_destinations(), 0u);
  EXPECT_EQ(r.epoch(), e0 + 1);
}

TEST_F(RouterHpnTest, TraceViaDownFirstHopFails) {
  const auto& att = c.nic_of(0);
  c.topo.set_link_up(att.access[0], false);
  r.invalidate();
  EXPECT_FALSE(r.trace_via(att.access[0], c.nic_of(8).nic, tuple_for(c, 0, 8)).valid());
}

// Asymmetric failures can make a dual-homed NIC look one hop closer than
// its ToR: the NIC takes its distance from its healthy-plane ToR, while its
// other ToR only reaches the destination the long way. The NIC must still
// never be offered as a transit hop.
TEST(RouterAsymmetricFailures, DualHomedNicIsNeverATransitHop) {
  HpnConfig cfg;
  cfg.segments_per_pod = 3;
  cfg.hosts_per_segment = 2;
  cfg.gpus_per_host = 1;
  cfg.tor_uplinks = 2;
  cfg.aggs_per_plane = 2;
  Cluster c = topo::build_hpn(cfg);
  // c.tors: [seg0 p0, seg0 p1, seg1 p0, seg1 p1, seg2 p0, seg2 p1];
  // c.aggs: [plane0 a0, plane0 a1, plane1 a0, plane1 a1].
  const NodeId tor0 = c.tors[0];
  const NodeId tor_dst = c.tors[2];
  const auto kill = [&c](NodeId a, NodeId b) {
    for (const LinkId l : c.topo.find_links(a, b)) c.topo.set_duplex_up(l, false);
  };
  // Plane 0 from segment 0 to segment 1 now detours through segment 2:
  // seg0 p0 -> a0 -> seg2 p0 -> a1 -> seg1 p0 (four hops instead of two).
  kill(tor0, c.aggs[1]);
  kill(tor_dst, c.aggs[0]);
  const auto& relay = c.nic_of(0);  // host 0: on seg0 p0 and seg0 p1
  const auto& src = c.nic_of(1);    // host 1: plane-1 cable dead
  c.topo.set_duplex_up(src.access[1], false);
  const NodeId dst = c.nic_of(2).nic;  // host 2, segment 1

  Router r{c.topo};
  ASSERT_EQ(r.distance(relay.nic, dst), 4);  // via its plane-1 ToR
  ASSERT_EQ(r.distance(tor0, dst), 5);       // the plane-0 detour
  for (const LinkId l : r.ecmp_links(tor0, dst)) {
    EXPECT_EQ(c.topo.node(c.topo.link(l).dst).kind, NodeKind::kAgg);
  }
  const auto no_nic_transit = [&](const Path& p) {
    ASSERT_TRUE(p.valid());
    EXPECT_EQ(p.hops(), 6u);
    for (std::size_t i = 0; i + 1 < p.links.size(); ++i) {
      EXPECT_NE(c.topo.node(c.topo.link(p.links[i]).dst).kind, NodeKind::kNic);
    }
  };
  for (std::uint16_t sport = 0; sport < 20; ++sport) {
    no_nic_transit(r.trace(src.nic, dst, FiveTuple{.src_ip = 1, .dst_ip = 2, .src_port = sport}));
  }
}

TEST_F(RouterHpnTest, FirstPathTakesTheFirstCandidateAtEveryHop) {
  const NodeId src = c.nic_of(0).nic;
  const NodeId dst = c.nic_of(4 * 8).nic;
  const Path p = r.first_path(src, dst);
  ASSERT_EQ(p.hops(), 4u);
  NodeId at = src;
  for (const LinkId l : p.links) {
    EXPECT_EQ(l, r.ecmp_links(at, dst).front());
    at = c.topo.link(l).dst;
  }
  EXPECT_EQ(at, dst);
  EXPECT_FALSE(r.first_path(src, src).valid());
  c.topo.set_duplex_up(c.nic_of(4 * 8).access[0], false);
  c.topo.set_duplex_up(c.nic_of(4 * 8).access[1], false);
  r.invalidate();
  EXPECT_FALSE(r.first_path(src, dst).valid());
}

// Every node's distance and ECMP group toward `dst` equals the
// per-destination reference router's.
void expect_matches_reference(Router& r, const topo::Topology& t, NodeId dst) {
  reference::Router want{t};
  for (const topo::Node& node : t.nodes()) {
    EXPECT_EQ(r.distance(node.id, dst), want.distance(node.id, dst)) << node.name;
    EXPECT_EQ(r.ecmp_links(node.id, dst), want.ecmp_links(node.id, dst)) << node.name;
  }
}

TEST_F(RouterHpnTest, TwoNicsOnOneTorPairShareOneField) {
  // Host 1 and host 2, rail 0: same segment, same dual-ToR pair.
  const NodeId a = c.nic_of(1 * 8).nic;
  const NodeId b = c.nic_of(2 * 8).nic;
  ASSERT_EQ(c.nic_of(1 * 8).tor, c.nic_of(2 * 8).tor);
  expect_matches_reference(r, c.topo, a);
  expect_matches_reference(r, c.topo, b);
  EXPECT_EQ(r.stats().fields_built, 1u);
  EXPECT_EQ(r.stats().destinations_resolved, 2u);
  EXPECT_EQ(r.cached_destinations(), 2u);
  // Another rail is another ToR pair, so another field.
  (void)r.distance(a, c.nic_of(1 * 8 + 1).nic);
  EXPECT_EQ(r.stats().fields_built, 2u);
}

TEST_F(RouterHpnTest, HalfDownAccessLinkSplitsASet) {
  const auto& a = c.nic_of(1 * 8);
  const NodeId b = c.nic_of(2 * 8).nic;
  // NIC -> ToR only, then ToR -> NIC only: either direction gives the NIC a
  // field of its own, and both NICs keep routing exactly as before.
  for (const LinkId down : {a.access[0], c.topo.link(a.access[0]).reverse}) {
    c.topo.set_link_up(down, false);
    r.invalidate();
    const auto built = r.stats().fields_built;
    expect_matches_reference(r, c.topo, a.nic);
    expect_matches_reference(r, c.topo, b);
    EXPECT_EQ(r.stats().fields_built, built + 2);
    c.topo.set_link_up(down, true);
  }
  r.invalidate();
  const auto built = r.stats().fields_built;
  (void)r.distance(b, a.nic);
  (void)r.distance(a.nic, b);
  EXPECT_EQ(r.stats().fields_built, built + 1);  // healed: one set again
}

TEST_F(RouterHpnTest, PcieGpuIsOneHopFromItsOwnNicOnly) {
  const topo::Host& h1 = c.hosts[1];
  const topo::Host& h2 = c.hosts[2];
  const NodeId dst = h1.nics[0].nic;
  // The shared field says nothing about the GPU behind dst; the override
  // puts it one PCIe hop away. The sibling NIC's GPU cannot reach dst
  // without transiting an endpoint.
  EXPECT_EQ(r.distance(h1.gpus[0], dst), 1);
  EXPECT_EQ(r.ecmp_links(h1.gpus[0], dst), std::vector<LinkId>{h1.gpu_pcie[0]});
  EXPECT_EQ(r.first_path(h1.gpus[0], dst).links, std::vector<LinkId>{h1.gpu_pcie[0]});
  EXPECT_EQ(r.distance(h2.gpus[0], dst), -1);
  EXPECT_EQ(r.distance(h2.gpus[0], h2.nics[0].nic), 1);
  EXPECT_EQ(r.stats().fields_built, 1u);
  expect_matches_reference(r, c.topo, dst);
  // A down PCIe link removes the override.
  c.topo.set_duplex_up(h1.gpu_pcie[0], false);
  r.invalidate();
  EXPECT_EQ(r.distance(h1.gpus[0], dst), -1);
  expect_matches_reference(r, c.topo, dst);
}

TEST_F(RouterHpnTest, InvalidateClearsTheSlotTable) {
  const NodeId src = c.nic_of(0).nic;
  const auto& dst = c.nic_of(8);
  ASSERT_EQ(r.distance(src, dst.nic), 2);
  ASSERT_EQ(r.stats().fields_built, 1u);
  c.topo.set_duplex_up(dst.access[0], false);
  c.topo.set_duplex_up(dst.access[1], false);
  r.invalidate();
  EXPECT_EQ(r.cached_destinations(), 0u);
  // The destination resolves again, to a field built from the new state.
  EXPECT_EQ(r.distance(src, dst.nic), -1);
  EXPECT_EQ(r.stats().fields_built, 2u);
  EXPECT_EQ(r.stats().destinations_resolved, 2u);
  EXPECT_EQ(r.cached_destinations(), 1u);
}

TEST(RouterMultiPod, CrossPodIsSixHops) {
  auto cfg = HpnConfig::tiny();
  cfg.pods = 2;
  Cluster c = topo::build_hpn(cfg);
  Router r{c.topo};
  const int ranks_per_pod = 2 * 4 * 8;  // 2 segments x 4 hosts x 8 rails
  const NodeId src = c.nic_of(0).nic;
  const NodeId dst = c.nic_of(ranks_per_pod).nic;
  // NIC -> ToR -> Agg -> Core -> Agg -> ToR -> NIC.
  EXPECT_EQ(r.distance(src, dst), 6);
  const Path p = r.trace(src, dst, FiveTuple{.src_ip = 1, .dst_ip = 2, .src_port = 3});
  ASSERT_TRUE(p.valid());
  bool crossed_core = false;
  for (const LinkId l : p.links) {
    crossed_core |= c.topo.node(c.topo.link(l).src).kind == NodeKind::kCore;
  }
  EXPECT_TRUE(crossed_core);
}

TEST(RouterDcn, IntraSegmentTwoHops) {
  Cluster c = topo::build_dcn_plus(topo::DcnPlusConfig::paper_pod());
  Router r{c.topo};
  EXPECT_EQ(r.distance(c.nic_of(0).nic, c.nic_of(8).nic), 2);
  // Cross-segment goes through Agg.
  EXPECT_EQ(r.distance(c.nic_of(0).nic, c.nic_of(16 * 8).nic), 4);
}

TEST(RouterDcn, CrossRailSameTorPair) {
  // DCN+ is not rail-optimized: cross-rail hosts still meet at the ToR.
  Cluster c = topo::build_dcn_plus(topo::DcnPlusConfig::paper_pod());
  Router r{c.topo};
  EXPECT_EQ(r.distance(c.nic_of(0).nic, c.nic_of(8 + 3).nic), 2);
}

TEST(RouterFatTree, HostDistances) {
  Cluster c = topo::build_fat_tree(topo::FatTreeConfig{.k = 4});
  Router r{c.topo};
  // Same edge switch: 2; same pod: 4; cross pod: 6.
  EXPECT_EQ(r.distance(c.nic_of(0).nic, c.nic_of(1).nic), 2);
  EXPECT_EQ(r.distance(c.nic_of(0).nic, c.nic_of(2).nic), 4);
  EXPECT_EQ(r.distance(c.nic_of(0).nic, c.nic_of(4).nic), 6);
}

}  // namespace
}  // namespace hpn::routing
