#include "topo/builders.h"

#include <gtest/gtest.h>

#include <set>

namespace hpn::topo {
namespace {

TEST(HpnBuilder, TinyShape) {
  const auto cfg = HpnConfig::tiny();
  const Cluster c = build_hpn(cfg);
  EXPECT_EQ(c.arch, Arch::kHpn);
  EXPECT_EQ(c.hosts.size(), 8u);  // 2 segments x 4 hosts
  EXPECT_EQ(c.gpu_count(), 64);
  // 2 segments x 8 rails x 2 planes = 32 ToRs.
  EXPECT_EQ(c.tors.size(), 32u);
  // 2 planes x 4 aggs.
  EXPECT_EQ(c.aggs.size(), 8u);
  EXPECT_TRUE(c.cores.empty());
}

TEST(HpnBuilder, GpuRankMapping) {
  const Cluster c = build_hpn(HpnConfig::tiny());
  for (int rank = 0; rank < c.gpu_count(); ++rank) {
    const NodeId g = c.gpu(rank);
    const GpuRef ref = c.locate_gpu(g);
    ASSERT_TRUE(ref.valid());
    EXPECT_EQ(ref.host, rank / 8);
    EXPECT_EQ(ref.rail, rank % 8);
  }
}

TEST(HpnBuilder, DualTorPortsLandOnDistinctPlanes) {
  const Cluster c = build_hpn(HpnConfig::tiny());
  for (const Host& h : c.hosts) {
    for (const NicAttachment& nic : h.nics) {
      ASSERT_EQ(nic.ports, 2);
      EXPECT_NE(nic.tor[0], nic.tor[1]);
      EXPECT_EQ(c.topo.node(nic.tor[0]).loc.plane, 0);
      EXPECT_EQ(c.topo.node(nic.tor[1]).loc.plane, 1);
    }
  }
}

TEST(HpnBuilder, RailOptimizedWiring) {
  const Cluster c = build_hpn(HpnConfig::tiny());
  for (const Host& h : c.hosts) {
    for (std::size_t rail = 0; rail < h.nics.size(); ++rail) {
      for (int p = 0; p < 2; ++p) {
        const auto& tor = c.topo.node(h.nics[rail].tor[static_cast<std::size_t>(p)]);
        EXPECT_EQ(tor.loc.rail, static_cast<int>(rail));
        EXPECT_EQ(tor.loc.segment, h.segment);
      }
    }
  }
}

TEST(HpnBuilder, DualPlaneAggIsolation) {
  const Cluster c = build_hpn(HpnConfig::tiny());
  for (const NodeId agg : c.aggs) {
    const int plane = c.topo.node(agg).loc.plane;
    for (const LinkId l : c.topo.out_links(agg)) {
      const Node& peer = c.topo.node(c.topo.link(l).dst);
      EXPECT_EQ(peer.kind, NodeKind::kTor);
      EXPECT_EQ(peer.loc.plane, plane);
    }
  }
}

TEST(HpnBuilder, TorUplinkCount) {
  const auto cfg = HpnConfig::tiny();
  const Cluster c = build_hpn(cfg);
  for (const NodeId tor : c.tors) {
    int uplinks = 0;
    for (const LinkId l : c.topo.out_links(tor)) {
      if (c.topo.node(c.topo.link(l).dst).kind == NodeKind::kAgg) ++uplinks;
    }
    EXPECT_EQ(uplinks, cfg.tor_uplinks);
  }
}

TEST(HpnBuilder, SinglePlaneAblationSharesAggs) {
  auto cfg = HpnConfig::tiny();
  cfg.dual_plane = false;
  const Cluster c = build_hpn(cfg);
  EXPECT_EQ(c.arch, Arch::kHpnSinglePlane);
  EXPECT_EQ(c.aggs.size(), 4u);  // one shared group
  // Every ToR (both planes) connects to every agg.
  for (const NodeId tor : c.tors) {
    std::set<NodeId> peers;
    for (const LinkId l : c.topo.out_links(tor)) {
      const Node& n = c.topo.node(c.topo.link(l).dst);
      if (n.kind == NodeKind::kAgg) peers.insert(n.id);
    }
    EXPECT_EQ(peers.size(), 4u);
  }
}

TEST(HpnBuilder, SingleTorAblation) {
  auto cfg = HpnConfig::tiny();
  cfg.dual_tor = false;
  const Cluster c = build_hpn(cfg);
  EXPECT_EQ(c.tors.size(), 16u);  // 2 segments x 8 rails x 1
  for (const Host& h : c.hosts) {
    for (const NicAttachment& nic : h.nics) {
      EXPECT_EQ(nic.ports, 1);
      EXPECT_TRUE(nic.tor[0].is_valid());
      EXPECT_FALSE(nic.tor[1].is_valid());
    }
  }
}

TEST(HpnBuilder, NonRailOptimizedUsesOneTorSet) {
  auto cfg = HpnConfig::tiny();
  cfg.rail_optimized = false;
  const Cluster c = build_hpn(cfg);
  EXPECT_EQ(c.tors.size(), 4u);  // 2 segments x 1 set x 2 planes
  const Host& h = c.hosts.front();
  std::set<NodeId> tors;
  for (const NicAttachment& nic : h.nics) {
    tors.insert(nic.tor[0]);
    tors.insert(nic.tor[1]);
  }
  EXPECT_EQ(tors.size(), 2u);  // all 8 NICs share one dual-ToR pair
}

TEST(HpnBuilder, BackupHostsFlagged) {
  auto cfg = HpnConfig::tiny();
  cfg.backup_hosts_per_segment = 1;
  const Cluster c = build_hpn(cfg);
  EXPECT_EQ(c.hosts.size(), 10u);
  int backups = 0;
  for (const Host& h : c.hosts) backups += h.backup;
  EXPECT_EQ(backups, 2);
}

TEST(HpnBuilder, MultiPodBuildsCores) {
  auto cfg = HpnConfig::tiny();
  cfg.pods = 2;
  const Cluster c = build_hpn(cfg);
  EXPECT_FALSE(c.cores.empty());
  // Cores stay plane-isolated (§7 carries dual-plane into tier3).
  for (const NodeId core : c.cores) {
    const int plane = c.topo.node(core).loc.plane;
    for (const LinkId l : c.topo.out_links(core)) {
      EXPECT_EQ(c.topo.node(c.topo.link(l).dst).loc.plane, plane);
    }
  }
  // Every pod reaches every core of each plane (rotation covers all).
  for (const NodeId core : c.cores) {
    std::set<int> pods;
    for (const LinkId l : c.topo.out_links(core)) {
      pods.insert(c.topo.node(c.topo.link(l).dst).loc.pod);
    }
    EXPECT_EQ(pods.size(), 2u);
  }
}

TEST(HpnBuilder, RailOnlyTier2Partitioning) {
  auto cfg = HpnConfig::tiny();
  cfg.rail_only_tier2 = true;
  const Cluster c = build_hpn(cfg);
  EXPECT_EQ(c.arch, Arch::kHpnRailOnly);
  // Aggs per (plane, rail) group: 2 planes x 8 rails x 4 = 64.
  EXPECT_EQ(c.aggs.size(), 64u);
  for (const NodeId agg : c.aggs) {
    const Node& an = c.topo.node(agg);
    for (const LinkId l : c.topo.out_links(agg)) {
      const Node& peer = c.topo.node(c.topo.link(l).dst);
      EXPECT_EQ(peer.loc.rail, an.loc.rail);
      EXPECT_EQ(peer.loc.plane, an.loc.plane);
    }
  }
}

TEST(HpnBuilder, PaperPodScale) {
  // Full production Pod: verify scale facts from §5-§6 without materializing
  // flows: 15 segments x 128 active hosts x 8 GPUs = 15360 active GPUs.
  const Cluster c = build_hpn(HpnConfig::paper_pod());
  int active = 0, backup = 0;
  for (const Host& h : c.hosts) (h.backup ? backup : active) += 1;
  EXPECT_EQ(active * 8, 15360);
  EXPECT_EQ(backup, 15 * 8);
  EXPECT_EQ(c.tors.size(), 15u * 16u);
  EXPECT_EQ(c.aggs.size(), 120u);
  // ToR port budget: (128+8) x 200G down + 60 x 400G up = 51.2T exactly.
  const NodeId tor = c.tors.front();
  Bandwidth total = Bandwidth::zero();
  for (const LinkId l : c.topo.out_links(tor)) total += c.topo.link(l).capacity;
  EXPECT_NEAR(total.as_gbps(), 51200.0, 1e-6);
}

TEST(DcnBuilder, PaperPodShape) {
  const Cluster c = build_dcn_plus(DcnPlusConfig::paper_pod());
  EXPECT_EQ(c.arch, Arch::kDcnPlus);
  EXPECT_EQ(c.hosts.size(), 64u);       // 4 segments x 16 hosts
  EXPECT_EQ(c.gpu_count(), 512);
  EXPECT_EQ(c.tors.size(), 8u);         // 4 segments x 2
  EXPECT_EQ(c.aggs.size(), 8u);
  // ToR uplinks: 8 aggs x 8 links = 64.
  int uplinks = 0;
  for (const LinkId l : c.topo.out_links(c.tors.front())) {
    if (c.topo.node(c.topo.link(l).dst).kind == NodeKind::kAgg) ++uplinks;
  }
  EXPECT_EQ(uplinks, 64);
}

TEST(DcnBuilder, AllNicsShareTorPair) {
  const Cluster c = build_dcn_plus(DcnPlusConfig::paper_pod());
  const Host& h = c.hosts.front();
  std::set<NodeId> tors;
  for (const NicAttachment& nic : h.nics) {
    tors.insert(nic.tor[0]);
    tors.insert(nic.tor[1]);
  }
  EXPECT_EQ(tors.size(), 2u);  // not rail-optimized
}

TEST(DcnBuilder, MultiPodCores) {
  DcnPlusConfig cfg;
  cfg.pods = 2;
  cfg.segments_per_pod = 1;
  cfg.hosts_per_segment = 2;
  const Cluster c = build_dcn_plus(cfg);
  EXPECT_EQ(c.cores.size(), 16u);
  // Each agg spreads 64 uplinks over 16 cores: 4 links per core.
  const NodeId agg = c.aggs.front();
  int core_links = 0;
  for (const LinkId l : c.topo.out_links(agg)) {
    if (c.topo.node(c.topo.link(l).dst).kind == NodeKind::kCore) ++core_links;
  }
  EXPECT_EQ(core_links, 64);
}

TEST(FatTree, K4Shape) {
  const Cluster c = build_fat_tree(FatTreeConfig{.k = 4});
  EXPECT_EQ(c.hosts.size(), 16u);  // k^3/4
  EXPECT_EQ(c.tors.size(), 8u);    // k pods x k/2
  EXPECT_EQ(c.aggs.size(), 8u);
  EXPECT_EQ(c.cores.size(), 4u);   // (k/2)^2
  EXPECT_EQ(c.gpus_per_host, 1);
}

TEST(FatTree, OddKRejected) {
  EXPECT_THROW(build_fat_tree(FatTreeConfig{.k = 5}), CheckError);
}

TEST(RailOnlyBuilder, TinyShape) {
  const Cluster c = build_rail_only({.hosts = 4});
  EXPECT_EQ(c.arch, Arch::kRailOnly);
  EXPECT_EQ(c.hosts.size(), 4u);
  EXPECT_EQ(c.gpu_count(), 32);
  EXPECT_EQ(c.tors.size(), 16u);  // 8 rails x 2 planes, no Agg/Core at all
  EXPECT_TRUE(c.aggs.empty());
  EXPECT_TRUE(c.cores.empty());
  // Each NIC dual-homes onto its own rail's ToR pair.
  for (const Host& h : c.hosts) {
    for (std::size_t rail = 0; rail < h.nics.size(); ++rail) {
      ASSERT_EQ(h.nics[rail].ports, 2);
      for (int p = 0; p < 2; ++p) {
        const Node& tor = c.topo.node(h.nics[rail].tor[static_cast<std::size_t>(p)]);
        EXPECT_EQ(tor.loc.rail, static_cast<int>(rail));
        EXPECT_EQ(tor.loc.plane, p);
      }
    }
  }
}

TEST(RailXBuilder, TinyShape) {
  const RailXConfig cfg{};
  const Cluster c = build_railx(cfg);
  EXPECT_EQ(c.arch, Arch::kRailXLite);
  EXPECT_EQ(c.hosts.size(), 10u);  // 5 groups x 2 hosts
  EXPECT_EQ(c.tors.size(), 40u);   // 5 groups x 8 rails
  EXPECT_TRUE(c.aggs.empty());
  EXPECT_EQ(c.segments_per_pod, cfg.groups);
  // Rotor schedule: G-1 epochs over C(G,2) circuits per rail.
  EXPECT_EQ(c.circuits.epochs(), cfg.groups - 1);
  // Every circuit link connects same-rail ToRs of different groups.
  for (const auto& epoch : c.circuits.epoch_links) {
    for (const LinkId l : epoch) {
      const Node& a = c.topo.node(c.topo.link(l).src);
      const Node& b = c.topo.node(c.topo.link(l).dst);
      EXPECT_EQ(a.kind, NodeKind::kTor);
      EXPECT_EQ(b.kind, NodeKind::kTor);
      EXPECT_EQ(a.loc.rail, b.loc.rail);
      EXPECT_NE(a.loc.segment, b.loc.segment);
    }
  }
}

TEST(UbMeshBuilder, TinyShape) {
  const Cluster c = build_ubmesh({});
  EXPECT_EQ(c.arch, Arch::kUbMeshLite);
  EXPECT_EQ(c.tors.size(), 4u);   // 2x2 grid
  EXPECT_EQ(c.hosts.size(), 8u);  // 2 hosts per switch
  EXPECT_TRUE(c.aggs.empty());
  EXPECT_TRUE(c.circuits.empty());
  // 2x2 HyperX: each switch meshes with 1 row peer + 1 column peer.
  for (const NodeId tor : c.tors) {
    int fabric_links = 0;
    for (const LinkId l : c.topo.out_links(tor)) {
      if (c.topo.link(l).kind == LinkKind::kFabric) ++fabric_links;
    }
    EXPECT_EQ(fabric_links, 2);
  }
  // Hosts attach single-port to the switch of their segment.
  for (const Host& h : c.hosts) {
    for (const NicAttachment& nic : h.nics) {
      ASSERT_EQ(nic.ports, 1);
      EXPECT_EQ(c.topo.node(nic.tor[0]).loc.segment, h.segment);
    }
  }
}

TEST(Builders, InvalidConfigRejected) {
  HpnConfig bad = HpnConfig::tiny();
  bad.hosts_per_segment = 0;
  EXPECT_THROW(build_hpn(bad), CheckError);

  HpnConfig indivisible = HpnConfig::tiny();
  indivisible.tor_uplinks = 3;  // not divisible by 4 aggs
  EXPECT_THROW(build_hpn(indivisible), CheckError);

  RailOnlyConfig no_hosts;
  no_hosts.hosts = 0;
  EXPECT_THROW(build_rail_only(no_hosts), CheckError);

  RailXConfig one_group;
  one_group.groups = 1;
  EXPECT_THROW(build_railx(one_group), CheckError);

  UbMeshConfig lone_switch;
  lone_switch.rows = 1;
  lone_switch.cols = 1;
  EXPECT_THROW(build_ubmesh(lone_switch), CheckError);
}

}  // namespace
}  // namespace hpn::topo
