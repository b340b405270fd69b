// Property sweeps over the fabric strategy zoo: structural formulas for the
// three new architectures (degree / link-count / bisection), ECMP path-count
// bounds, rotor-schedule invariants, tier discovery, and a 10K-flow hash
// load-spread bound (<= 2x fair share at the first ECMP divergence) for
// every registered fabric under its own hash policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "fabric/fabric.h"
#include "routing/router.h"
#include "topo/blast_radius.h"
#include "topo/builders.h"
#include "topo/validate.h"

namespace hpn::topo {

/// gtest lists a Grid/RailOnlyGrid case as this text; without a PrintTo it
/// dumps the config's bytes.
void PrintTo(const RailOnlyConfig& cfg, std::ostream* os) {
  *os << "h" << cfg.hosts << "_g" << cfg.gpus_per_host << (cfg.dual_tor ? "_dt" : "_st");
}

}  // namespace hpn::topo

namespace hpn::fabric {
namespace {

/// Duplex fabric cables crossing a ToR partition (each cable counted once).
int cables_across(const topo::Cluster& c, const std::unordered_set<NodeId>& left) {
  int crossing = 0;
  for (const topo::Link& l : c.topo.links()) {
    if (l.kind != topo::LinkKind::kFabric) continue;
    if (l.reverse.value() < l.id.value()) continue;  // forward half only
    if (left.contains(l.src) != left.contains(l.dst)) ++crossing;
  }
  return crossing;
}

// ---- Registry-wide properties ----------------------------------------------

TEST(FabricZoo, EveryFabricValidatesAtDefaultScale) {
  for (const Fabric* f : all_fabrics()) {
    SCOPED_TRACE(std::string{f->name()});
    const topo::Cluster c = f->build(FabricScale{});
    EXPECT_FALSE(c.hosts.empty());
    EXPECT_GT(c.gpu_count(), 0);
    const auto violations = topo::validate(c);
    EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations.front());
    EXPECT_FALSE(f->description().empty());
  }
}

TEST(FabricZoo, ReconfigScheduleMatchesCircuitTier) {
  // Exactly the fabrics with a nonzero reconfig period build a circuit
  // schedule, and no period is negative.
  for (const Fabric* f : all_fabrics()) {
    SCOPED_TRACE(std::string{f->name()});
    const topo::Cluster c = f->build(FabricScale{});
    EXPECT_GE(f->reconfig_period(), Duration::zero());
    EXPECT_EQ(f->reconfig_period() > Duration::zero(), !c.circuits.empty());
  }
}

TEST(FabricZoo, HashLoadSpreadWithinTwiceFairShare) {
  // At the first ECMP divergence on the longest NIC-to-NIC route, 10K flows
  // (distinct src ip/port, one destination) must land within 2x fair share
  // on every member link, under the fabric's own hash policy.
  FabricScale scale;
  scale.segments_per_pod = 4;
  scale.hosts_per_segment = 2;
  scale.gpus_per_host = 2;
  for (const Fabric* f : all_fabrics()) {
    SCOPED_TRACE(std::string{f->name()});
    const topo::Cluster c = f->build(scale);
    routing::Router r{c.topo, f->hash_policy()};
    const NodeId src = c.nic_of(0).nic;
    NodeId dst = NodeId::invalid();
    int far = 0;
    for (int rank = 1; rank < c.gpu_count(); ++rank) {
      const NodeId n = c.nic_of(rank).nic;
      const int d = r.distance(src, n);
      if (d > far) {
        far = d;
        dst = n;
      }
    }
    ASSERT_TRUE(dst.is_valid());
    // Hops before the first divergence are forced, so every flow reaches it.
    const routing::Path base =
        r.trace(src, dst, routing::FiveTuple{.src_ip = 1, .dst_ip = 2, .src_port = 9});
    ASSERT_TRUE(base.valid());
    // The first divergence on the route: every hop before it is forced, so
    // all 10K flows reach it. On dual-ToR fabrics this is the NIC's port
    // choice; on single-port fabrics it is the first switch fan-out —
    // either way it is the first point where the hash spreads load.
    NodeId vantage = NodeId::invalid();
    std::size_t width = 0;
    for (const LinkId l : base.links) {
      const NodeId node = c.topo.link(l).src;
      width = r.ecmp_links(node, dst).size();
      if (width >= 2) {
        vantage = node;
        break;
      }
    }
    ASSERT_TRUE(vantage.is_valid()) << "no multipath anywhere on the route";
    constexpr int kFlows = 10000;
    std::unordered_map<LinkId, int> taken;
    for (int i = 0; i < kFlows; ++i) {
      routing::FiveTuple ft;
      ft.src_ip = 0x0A000000u + static_cast<std::uint32_t>(i);
      ft.dst_ip = 0x0B0B0B0Bu;
      ft.src_port = static_cast<std::uint16_t>((i * 131) % 65536);
      const routing::Path p = r.trace(src, dst, ft);
      for (const LinkId l : p.links) {
        if (c.topo.link(l).src == vantage) {
          ++taken[l];
          break;
        }
      }
    }
    int total = 0;
    for (const auto& [link, n] : taken) total += n;
    EXPECT_EQ(total, kFlows);
    EXPECT_EQ(taken.size(), width) << "some ECMP member never chosen";
    const double fair = static_cast<double>(kFlows) / static_cast<double>(width);
    for (const auto& [link, n] : taken) {
      EXPECT_LE(n, 2.0 * fair) << "link " << link.value() << " got " << n << " of "
                               << kFlows << " flows across " << width << " members";
    }
  }
}

TEST(FabricZoo, EcmpGroupsNeverExceedNodeDegree) {
  for (const Fabric* f : all_fabrics()) {
    SCOPED_TRACE(std::string{f->name()});
    const topo::Cluster c = f->build(FabricScale{});
    routing::Router r{c.topo, f->hash_policy()};
    const NodeId dst = c.nic_of(c.gpu_count() - 1).nic;
    for (const NodeId tor : c.tors) {
      const auto group = r.ecmp_links(tor, dst);
      EXPECT_LE(group.size(), c.topo.out_links(tor).size());
      for (const LinkId l : group) EXPECT_TRUE(c.topo.is_up(l));
    }
  }
}

// ---- Rail-only --------------------------------------------------------------

class RailOnlyGrid : public ::testing::TestWithParam<topo::RailOnlyConfig> {};

TEST_P(RailOnlyGrid, StructuralFormulas) {
  const topo::RailOnlyConfig cfg = GetParam();
  const topo::Cluster c = topo::build_rail_only(cfg);
  const int planes = cfg.dual_tor ? 2 : 1;
  EXPECT_TRUE(topo::validate(c).empty());
  EXPECT_EQ(static_cast<int>(c.tors.size()), cfg.gpus_per_host * planes);
  EXPECT_TRUE(c.aggs.empty());
  EXPECT_TRUE(c.cores.empty());
  // Every ToR sees exactly one access link per host; no fabric tier at all.
  for (const NodeId tor : c.tors) {
    EXPECT_EQ(static_cast<int>(c.topo.out_links(tor).size()), cfg.hosts);
  }
  const CostProxy cost = cost_proxy(c);
  EXPECT_EQ(cost.switches, cfg.gpus_per_host * planes);
  EXPECT_EQ(cost.access_cables, cfg.hosts * cfg.gpus_per_host * planes);
  EXPECT_EQ(cost.fabric_cables, 0);
  EXPECT_EQ(cost.circuit_ports, 0);
}

TEST_P(RailOnlyGrid, RailLocalityIsAbsolute) {
  const topo::RailOnlyConfig cfg = GetParam();
  const topo::Cluster c = topo::build_rail_only(cfg);
  routing::Router r{c.topo};
  const int g = cfg.gpus_per_host;
  // Same rail, different hosts: NIC -> ToR -> NIC.
  if (cfg.hosts >= 2) {
    EXPECT_EQ(r.distance(c.nic_of(0).nic, c.nic_of((cfg.hosts - 1) * g).nic), 2);
  }
  // Different rails: no backend path by design (NVSwitch is the only bridge).
  if (g >= 2) {
    EXPECT_EQ(r.distance(c.nic_of(0).nic, c.nic_of(1).nic), -1);
  }
}

constexpr topo::RailOnlyConfig kRailOnlyGrid[] = {
    {.hosts = 4, .gpus_per_host = 8, .dual_tor = true},
    {.hosts = 8, .gpus_per_host = 4, .dual_tor = true},
    {.hosts = 3, .gpus_per_host = 2, .dual_tor = false},
    {.hosts = 1, .gpus_per_host = 8, .dual_tor = true},
};

INSTANTIATE_TEST_SUITE_P(
    Grid, RailOnlyGrid, ::testing::ValuesIn(kRailOnlyGrid), ::testing::PrintToStringParamName());

// ---- RailX-lite -------------------------------------------------------------

class RailXGrid : public ::testing::TestWithParam<int> {};  // group count

TEST_P(RailXGrid, StructuralFormulas) {
  topo::RailXConfig cfg;
  cfg.groups = GetParam();
  const topo::Cluster c = topo::build_railx(cfg);
  const int g = cfg.groups;
  const int rails = cfg.gpus_per_host;
  EXPECT_TRUE(topo::validate(c).empty());
  EXPECT_EQ(static_cast<int>(c.tors.size()), g * rails);
  EXPECT_TRUE(c.aggs.empty());
  // One circuit per unordered group pair per rail; all of them OCS ports.
  const CostProxy cost = cost_proxy(c);
  EXPECT_EQ(cost.fabric_cables, rails * g * (g - 1) / 2);
  EXPECT_EQ(cost.circuit_ports, 2 * cost.fabric_cables);
  EXPECT_EQ(cost.access_cables, g * cfg.hosts_per_group * rails);
}

TEST_P(RailXGrid, RotorScheduleShape) {
  topo::RailXConfig cfg;
  cfg.groups = GetParam();
  const topo::Cluster c = topo::build_railx(cfg);
  const int g = cfg.groups;
  const int rails = cfg.gpus_per_host;
  ASSERT_EQ(c.circuits.epochs(), g - 1);
  for (int e = 0; e < g - 1; ++e) {
    const int d = std::min(e + 1, g - (e + 1));
    const int pairs = (2 * d == g) ? g / 2 : g;
    EXPECT_EQ(static_cast<int>(c.circuits.epoch_links[static_cast<std::size_t>(e)].size()),
              pairs * rails)
        << "epoch " << e;
  }
  // Builder leaves exactly epoch 0 up among circuit links.
  std::unordered_set<LinkId> up0{c.circuits.epoch_links[0].begin(),
                                 c.circuits.epoch_links[0].end()};
  for (const auto& epoch : c.circuits.epoch_links) {
    for (const LinkId l : epoch) {
      EXPECT_EQ(c.topo.is_up(l), up0.contains(l));
    }
  }
}

TEST_P(RailXGrid, RingBisectionIsTwoPerRail) {
  // Epoch 0 is the difference-1 ring: any contiguous half/rest cut is
  // crossed by exactly 2 live circuit cables per rail (1 for the G=2
  // degenerate ring, whose single cable IS the cut).
  topo::RailXConfig cfg;
  cfg.groups = GetParam();
  const topo::Cluster c = topo::build_railx(cfg);
  const int g = cfg.groups;
  const int rails = cfg.gpus_per_host;
  std::unordered_set<NodeId> left;
  for (int grp = 0; grp < g / 2; ++grp) {
    for (int rail = 0; rail < rails; ++rail) {
      left.insert(c.tors[static_cast<std::size_t>(grp * rails + rail)]);
    }
  }
  int live_crossing = 0;
  for (const topo::Link& l : c.topo.links()) {
    if (l.kind != topo::LinkKind::kFabric || l.reverse.value() < l.id.value()) continue;
    if (!c.topo.is_up(l.id)) continue;
    if (left.contains(l.src) != left.contains(l.dst)) ++live_crossing;
  }
  EXPECT_EQ(live_crossing, (g == 2 ? 1 : 2) * rails);
}

TEST_P(RailXGrid, OddGroupEpochsStayConnected) {
  topo::RailXConfig cfg;
  cfg.groups = GetParam();
  topo::Cluster c = topo::build_railx(cfg);
  if (cfg.groups % 2 == 0) GTEST_SKIP() << "even group counts split on d = G/2";
  const int g = cfg.groups;
  for (int e = 0; e < c.circuits.epochs(); ++e) {
    apply_epoch(c, e);
    routing::Router r{c.topo};
    // Same-rail NICs in every group pair stay mutually reachable.
    const NodeId a = c.nic_of(0).nic;
    for (int grp = 1; grp < g; ++grp) {
      const int rank = grp * cfg.hosts_per_group * cfg.gpus_per_host;
      EXPECT_GT(r.distance(a, c.nic_of(rank).nic), 0)
          << "epoch " << e << " disconnects group " << grp;
    }
  }
  apply_epoch(c, 0);  // Restore the builder's resting epoch.
}

INSTANTIATE_TEST_SUITE_P(Groups, RailXGrid, ::testing::Values(2, 3, 4, 5, 6, 7),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           std::string name = "g";
                           name += std::to_string(param_info.param);
                           return name;
                         });

// ---- UB-Mesh-lite -----------------------------------------------------------

struct MeshParam {
  int rows;
  int cols;
};

void PrintTo(const MeshParam& p, std::ostream* os) { *os << p.rows << "x" << p.cols; }

class UbMeshGrid : public ::testing::TestWithParam<MeshParam> {};

TEST_P(UbMeshGrid, StructuralFormulas) {
  const auto [rows, cols] = GetParam();
  topo::UbMeshConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  const topo::Cluster c = topo::build_ubmesh(cfg);
  EXPECT_TRUE(topo::validate(c).empty());
  EXPECT_EQ(static_cast<int>(c.tors.size()), rows * cols);
  EXPECT_TRUE(c.aggs.empty());
  const CostProxy cost = cost_proxy(c);
  EXPECT_EQ(cost.fabric_cables, rows * cols * (cols - 1) / 2 + cols * rows * (rows - 1) / 2);
  EXPECT_EQ(cost.circuit_ports, 0);
  // HyperX degree: every switch meshes with its full row and column.
  for (const NodeId tor : c.tors) {
    int fabric_degree = 0;
    for (const LinkId l : c.topo.out_links(tor)) {
      if (c.topo.link(l).kind == topo::LinkKind::kFabric) ++fabric_degree;
    }
    EXPECT_EQ(fabric_degree, (rows - 1) + (cols - 1));
  }
  // Halving the rows cuts exactly the column-mesh cables between halves.
  if (rows >= 2) {
    std::unordered_set<NodeId> top;
    const int half = rows / 2;
    for (int r = 0; r < half; ++r) {
      for (int col = 0; col < cols; ++col) {
        top.insert(c.tors[static_cast<std::size_t>(r * cols + col)]);
      }
    }
    EXPECT_EQ(cables_across(c, top), cols * half * (rows - half));
  }
}

TEST_P(UbMeshGrid, TwoHopDiameterAndDiagonalEcmp) {
  const auto [rows, cols] = GetParam();
  topo::UbMeshConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  const topo::Cluster c = topo::build_ubmesh(cfg);
  routing::Router r{c.topo};
  // Any NIC pair: <= 2 switch-switch hops, so <= 4 total.
  const NodeId first = c.nic_of(0).nic;
  for (int rank = 1; rank < c.gpu_count(); ++rank) {
    const int d = r.distance(first, c.nic_of(rank).nic);
    EXPECT_GT(d, 0);
    EXPECT_LE(d, 4);
  }
  if (rows >= 2 && cols >= 2) {
    // Diagonal traffic load-balances row-first vs column-first.
    const NodeId corner = c.tors[0];
    const int diag_seg = (rows - 1) * cols + (cols - 1);
    const int rank = diag_seg * cfg.hosts_per_switch * cfg.gpus_per_host;
    EXPECT_EQ(r.ecmp_links(corner, c.nic_of(rank).nic).size(), 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, UbMeshGrid,
                         ::testing::Values(MeshParam{1, 2}, MeshParam{2, 2}, MeshParam{2, 3},
                                           MeshParam{3, 3}, MeshParam{2, 4}),
                         ::testing::PrintToStringParamName());

// ---- Tier discovery & blast radius -----------------------------------------

TEST(FabricZoo, TierDiscoveryMatchesArchitecture) {
  const topo::TierProfile hpn = topo::discover_tiers(fabric_or_throw("hpn").build({}));
  EXPECT_TRUE(hpn.has_agg);
  EXPECT_TRUE(hpn.plane_partitioned_aggs);
  EXPECT_TRUE(hpn.planar_access);
  EXPECT_TRUE(hpn.rail_tors);
  EXPECT_FALSE(hpn.tor_mesh);

  const topo::TierProfile rail = topo::discover_tiers(fabric_or_throw("rail-only").build({}));
  EXPECT_FALSE(rail.has_agg);
  EXPECT_FALSE(rail.has_core);
  EXPECT_TRUE(rail.rail_tors);
  EXPECT_TRUE(rail.planar_access);
  EXPECT_FALSE(rail.tor_mesh);

  const topo::TierProfile railx = topo::discover_tiers(fabric_or_throw("railx-lite").build({}));
  EXPECT_FALSE(railx.has_agg);
  EXPECT_TRUE(railx.rail_tors);
  EXPECT_FALSE(railx.planar_access);
  EXPECT_TRUE(railx.tor_mesh);

  const topo::TierProfile mesh = topo::discover_tiers(fabric_or_throw("ubmesh-lite").build({}));
  EXPECT_FALSE(mesh.has_agg);
  EXPECT_FALSE(mesh.rail_tors);
  EXPECT_FALSE(mesh.planar_access);
  EXPECT_TRUE(mesh.tor_mesh);
}

TEST(FabricZoo, DualTorFabricsDegradeWhereSingleTorIsolates) {
  // The paper's §2.3 claim, generalized: a ToR loss isolates hosts exactly
  // on single-homed fabrics.
  for (const Fabric* f : all_fabrics()) {
    SCOPED_TRACE(std::string{f->name()});
    topo::Cluster c = f->build(FabricScale{});
    const topo::BlastRadius worst = topo::worst_blast_radius(c, topo::NodeKind::kTor);
    const bool single_homed = c.hosts[0].nics[0].ports == 1;
    if (single_homed) {
      EXPECT_GT(worst.isolated_hosts, 0);
    } else {
      EXPECT_EQ(worst.isolated_hosts, 0);
      EXPECT_GT(worst.degraded_hosts, 0);
    }
  }
}

}  // namespace
}  // namespace hpn::fabric
