#include "ctrl/bgp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "topo/builders.h"

namespace hpn::ctrl {
namespace {

using topo::Cluster;
using topo::HpnConfig;

struct Rig {
  Cluster c;
  sim::Simulator s;
  BgpFabric bgp;

  explicit Rig(Cluster cluster) : c{std::move(cluster)}, bgp{c, s} {
    bgp.originate_all_host_routes();
    s.run();  // converge initial announcements
  }
};

Rig tiny_rig() { return Rig{topo::build_hpn(HpnConfig::tiny())}; }

TEST(Bgp, InitialConvergenceQuiesces) {
  Rig rig = tiny_rig();
  EXPECT_TRUE(rig.bgp.quiescent());
  EXPECT_GT(rig.bgp.messages_sent(), 0u);
}

TEST(Bgp, TorHasDirectRouteForAttachedNic) {
  Rig rig = tiny_rig();
  const auto& att = rig.c.nic_of(0);
  const auto routes = rig.bgp.routes_at(att.tor[0], att.nic);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].next_hop, att.nic);
  EXPECT_EQ(routes[0].via, att.access[0]);
  EXPECT_EQ(routes[0].length(), 0u);
}

TEST(Bgp, AggLearnsHostRoutesFromItsPlane) {
  Rig rig = tiny_rig();
  const auto& att = rig.c.nic_of(0);
  // Plane-0 aggs learn the /32 one hop away (via the ToR).
  for (const NodeId agg : rig.c.aggs_of_plane(0, 0)) {
    const auto routes = rig.bgp.routes_at(agg, att.nic);
    ASSERT_FALSE(routes.empty()) << "agg " << rig.c.topo.node(agg).name;
    EXPECT_EQ(routes[0].length(), 1u);
    EXPECT_EQ(routes[0].next_hop, att.tor[0]);
  }
}

TEST(Bgp, DualPlaneIsolationInRoutes) {
  // Plane-1 switches must never route toward a NIC's plane-0 port: the /32
  // of that port is invisible outside its plane... but the NIC itself is
  // reachable in plane 1 via its *own* plane-1 origination.
  Rig rig = tiny_rig();
  const auto& att = rig.c.nic_of(0);
  for (const NodeId agg : rig.c.aggs_of_plane(0, 1)) {
    const auto routes = rig.bgp.routes_at(agg, att.nic);
    ASSERT_FALSE(routes.empty());
    // The plane-1 route's next hop chain ends at the plane-1 ToR.
    EXPECT_EQ(routes[0].next_hop, att.tor[1]);
  }
}

TEST(Bgp, RemoteTorReachesCrossSegmentNic) {
  Rig rig = tiny_rig();
  const auto& src_att = rig.c.nic_of(0);          // segment 0, rail 0
  const auto& dst_att = rig.c.nic_of(4 * 8);      // segment 1, rail 0
  const auto routes = rig.bgp.routes_at(src_att.tor[0], dst_att.nic);
  ASSERT_FALSE(routes.empty());
  // ToR -> Agg -> ToR -> NIC: learned path length 2 (two speakers between).
  EXPECT_EQ(routes[0].length(), 2u);
  // ECMP: every plane-0 agg offers an equal-cost path.
  EXPECT_EQ(routes.size(), 4u);  // tiny() has 4 aggs per plane
}

TEST(Bgp, NoLoopsInAsPaths) {
  Rig rig = tiny_rig();
  const auto& dst = rig.c.nic_of(4 * 8);
  for (const NodeId tor : rig.c.tors) {
    for (const auto& r : rig.bgp.routes_at(tor, dst.nic)) {
      std::set<NodeId> seen;
      for (const NodeId hop : r.as_path) {
        EXPECT_TRUE(seen.insert(hop).second) << "loop in AS path";
      }
    }
  }
}

TEST(Bgp, AccessWithdrawalPropagates) {
  Rig rig = tiny_rig();
  const auto& att = rig.c.nic_of(4 * 8);  // segment-1 NIC
  const NodeId far_tor = rig.c.nic_of(0).tor[0];
  ASSERT_TRUE(rig.bgp.reachable(far_tor, att.nic));

  rig.c.topo.set_duplex_up(att.access[0], false);
  rig.bgp.on_access_down(att.access[0]);
  rig.s.run();
  EXPECT_TRUE(rig.bgp.quiescent());
  // Plane 0 lost the /32 everywhere (dual-plane: no detour).
  EXPECT_FALSE(rig.bgp.reachable(far_tor, att.nic));
  EXPECT_FALSE(rig.bgp.reachable(att.tor[0], att.nic));
  // Plane 1 still routes to it.
  EXPECT_TRUE(rig.bgp.reachable(rig.c.nic_of(0).tor[1], att.nic));
}

TEST(Bgp, ReannounceAfterRepair) {
  Rig rig = tiny_rig();
  const auto& att = rig.c.nic_of(4 * 8);
  rig.c.topo.set_duplex_up(att.access[0], false);
  rig.bgp.on_access_down(att.access[0]);
  rig.s.run();
  rig.c.topo.set_duplex_up(att.access[0], true);
  rig.bgp.on_access_up(att.access[0]);
  rig.s.run();
  EXPECT_TRUE(rig.bgp.reachable(rig.c.nic_of(0).tor[0], att.nic));
}

TEST(Bgp, WithdrawalExhibitsPathHuntingThenConverges) {
  // Path-vector protocols "hunt" on withdrawal: when the 1-hop route via
  // the dying ToR disappears, the Agg transiently believes the longer ghost
  // paths other ToRs had advertised (which themselves depend on the dead
  // route), before the withdrawal wave flushes them all.
  Rig rig = tiny_rig();
  const auto& att = rig.c.nic_of(4 * 8);
  const NodeId same_plane_agg = rig.c.aggs_of_plane(0, 0).front();
  const auto before = rig.bgp.routes_at(same_plane_agg, att.nic);
  ASSERT_FALSE(before.empty());
  EXPECT_EQ(before[0].length(), 1u);

  rig.c.topo.set_duplex_up(att.access[0], false);
  rig.bgp.on_access_down(att.access[0]);

  // One processing delay in: the direct route is gone; if anything remains
  // it is a strictly longer ghost.
  rig.s.run_until(rig.s.now() + Duration::millis(20));
  for (const auto& r : rig.bgp.routes_at(same_plane_agg, att.nic)) {
    EXPECT_GT(r.length(), 1u) << "direct route must be gone";
  }

  // The hunt terminates: everything in plane 0 ends up with no route.
  rig.s.run();
  EXPECT_TRUE(rig.bgp.quiescent());
  EXPECT_FALSE(rig.bgp.reachable(same_plane_agg, att.nic));
  EXPECT_FALSE(rig.bgp.reachable(rig.c.nic_of(0).tor[0], att.nic));
}

TEST(Bgp, DcnPlusWithdrawalLeavesSiblingPath) {
  // DCN+ (typical Clos): when ToR1 withdraws a /32, the Aggs still hold the
  // sibling ToR2's route — in-fabric failover, no host action needed.
  Cluster c = topo::build_dcn_plus(topo::DcnPlusConfig::paper_pod());
  sim::Simulator s;
  BgpFabric bgp{c, s};
  bgp.originate_all_host_routes();
  s.run();
  const auto& att = c.nic_of(0);
  const NodeId agg = c.aggs.front();
  ASSERT_EQ(bgp.routes_at(agg, att.nic).size(), 2u);  // via both ToRs

  c.topo.set_duplex_up(att.access[0], false);
  bgp.on_access_down(att.access[0]);
  s.run();
  const auto routes = bgp.routes_at(agg, att.nic);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].next_hop, att.tor[1]);
}

TEST(Bgp, FabricLinkFailureReroutes) {
  Rig rig = tiny_rig();
  const auto& src_att = rig.c.nic_of(0);
  const auto& dst_att = rig.c.nic_of(4 * 8);
  const NodeId tor = src_att.tor[0];
  const auto before = rig.bgp.routes_at(tor, dst_att.nic);
  ASSERT_EQ(before.size(), 4u);

  // Kill the ToR's link to the first plane-0 agg.
  const NodeId agg0 = before[0].next_hop;
  const auto links = rig.c.topo.find_links(tor, agg0);
  ASSERT_FALSE(links.empty());
  for (const LinkId l : links) rig.c.topo.set_duplex_up(l, false);
  rig.bgp.on_fabric_down(links[0]);
  rig.s.run();

  const auto after = rig.bgp.routes_at(tor, dst_att.nic);
  ASSERT_EQ(after.size(), 3u);  // the 59-remaining-aggs property (§6.1)
  for (const auto& r : after) EXPECT_NE(r.next_hop, agg0);

  for (const LinkId l : links) rig.c.topo.set_duplex_up(l, true);
  rig.bgp.on_fabric_up(links[0]);
  rig.s.run();
  EXPECT_EQ(rig.bgp.routes_at(tor, dst_att.nic).size(), 4u);
}

TEST(Bgp, NonSpeakersHoldNoRoutes) {
  Rig rig = tiny_rig();
  const auto& att = rig.c.nic_of(0);
  EXPECT_TRUE(rig.bgp.routes_at(att.nic, rig.c.nic_of(8).nic).empty());
}

}  // namespace
}  // namespace hpn::ctrl
// --- Additional fabrics and adjacency robustness ------------------------------
namespace hpn::ctrl {
namespace {

TEST(Bgp, AuditFibReportsViolationsInPrefixThenSpeakerOrder) {
  // Silently cut every link of one Agg (no BGP event): every speaker that
  // routes through it, and the Agg itself, now egresses over down links.
  // The audit lists those violations by prefix, then by ascending speaker
  // id, whatever the speaker map's bucket order.
  Rig rig = tiny_rig();
  const auto agg = std::find_if(rig.c.topo.nodes().begin(), rig.c.topo.nodes().end(),
                                [](const topo::Node& n) { return n.kind == topo::NodeKind::kAgg; });
  ASSERT_NE(agg, rig.c.topo.nodes().end());
  for (const LinkId l : rig.c.topo.out_links(agg->id)) rig.c.topo.set_duplex_up(l, false);
  rig.s.auditor().enable();
  rig.bgp.audit_fib(rig.s.auditor());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> order;  // (prefix, speaker)
  std::set<std::uint64_t> speakers;
  for (const sim::AuditViolation& v : rig.s.auditor().violations()) {
    unsigned long long speaker = 0, prefix = 0;
    ASSERT_EQ(std::sscanf(v.detail.c_str(), "speaker %llu routes prefix %llu", &speaker, &prefix),
              2)
        << v.detail;
    order.emplace_back(prefix, speaker);
    speakers.insert(speaker);
  }
  ASSERT_EQ(order.size(), sim::InvariantAuditor::kMaxRetained);
  EXPECT_GT(speakers.size(), 2u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(BgpExtra, ParallelLinkAdjacencySurvivesSingleCut) {
  // DCN+ ToR-Agg pairs have 8 parallel links; cutting one must not tear the
  // BGP session (the adjacency rides any surviving member).
  topo::Cluster c = topo::build_dcn_plus(topo::DcnPlusConfig::paper_pod());
  sim::Simulator s;
  BgpFabric bgp{c, s};
  bgp.originate_all_host_routes();
  s.run();
  const NodeId tor = c.hosts[0].nics[0].tor[0];
  const NodeId agg = c.aggs.front();
  const auto links = c.topo.find_links(tor, agg);
  ASSERT_EQ(links.size(), 8u);

  const auto& att = c.nic_of(16 * 8);  // segment-1 NIC
  ASSERT_TRUE(bgp.reachable(tor, att.nic));
  c.topo.set_duplex_up(links[0], false);
  bgp.on_fabric_down(links[0]);
  s.run();
  EXPECT_TRUE(bgp.reachable(tor, att.nic)) << "7 parallel links remain";
}

TEST(BgpExtra, FatTreeFullConvergence) {
  topo::Cluster c = topo::build_fat_tree(topo::FatTreeConfig{.k = 4});
  sim::Simulator s;
  BgpFabric bgp{c, s};
  bgp.originate_all_host_routes();
  s.run();
  EXPECT_TRUE(bgp.quiescent());
  // Every edge switch can reach every host.
  for (const NodeId tor : c.tors) {
    for (int h = 0; h < c.gpu_count(); ++h) {
      EXPECT_TRUE(bgp.reachable(tor, c.nic_of(h).nic));
    }
  }
  // Cross-pod routes traverse core: path length 4 (agg, core, agg, tor).
  const auto routes = bgp.routes_at(c.tors.front(), c.nic_of(15).nic);
  ASSERT_FALSE(routes.empty());
  EXPECT_EQ(routes.front().length(), 4u);
}

TEST(BgpExtra, MessageCountBounded) {
  // Convergence must not storm: messages scale with prefixes x edges, not
  // exponentially (path-vector with suppression).
  const topo::Cluster c = topo::build_hpn(topo::HpnConfig::tiny());
  sim::Simulator s;
  BgpFabric bgp{c, s};
  bgp.originate_all_host_routes();
  s.run();
  const std::uint64_t prefixes = 128;  // 64 GPUs x 2 ports
  const std::uint64_t adjacencies = 32 * 4 + 8;  // tor-agg + margin
  EXPECT_LT(bgp.messages_sent(), prefixes * adjacencies * 6);
}

}  // namespace
}  // namespace hpn::ctrl
