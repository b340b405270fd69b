// Property sweeps over the topology builders: for every configuration in a
// grid, the structural invariants of the architecture must hold.
#include <gtest/gtest.h>

#include "routing/router.h"
#include "topo/builders.h"
#include "topo/validate.h"

namespace hpn::topo {
namespace {

struct GridParam {
  int segments;
  int hosts;
  int pods;
  bool dual_tor;
  bool dual_plane;
  bool rail_optimized;
};

/// gtest names and lists a case by this text; without a PrintTo it dumps
/// the param's bytes.
void PrintTo(const GridParam& p, std::ostream* os) {
  *os << "seg" << p.segments << "_h" << p.hosts << "_pod" << p.pods
      << (p.dual_tor ? "_dt" : "_st") << (p.dual_plane ? "_dp" : "_sp")
      << (p.rail_optimized ? "_ro" : "_nr");
}

class HpnGrid : public ::testing::TestWithParam<GridParam> {
 protected:
  [[nodiscard]] HpnConfig config() const {
    const auto p = GetParam();
    auto cfg = HpnConfig::tiny();
    cfg.segments_per_pod = p.segments;
    cfg.hosts_per_segment = p.hosts;
    cfg.pods = p.pods;
    cfg.dual_tor = p.dual_tor;
    cfg.dual_plane = p.dual_plane && p.dual_tor;
    cfg.rail_optimized = p.rail_optimized;
    return cfg;
  }
};

TEST_P(HpnGrid, ValidatesCleanly) {
  const Cluster c = build_hpn(config());
  const auto violations = validate(c);
  EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations.front());
}

TEST_P(HpnGrid, GpuArithmetic) {
  const auto cfg = config();
  const Cluster c = build_hpn(cfg);
  EXPECT_EQ(c.gpu_count(), cfg.pods * cfg.segments_per_pod * cfg.hosts_per_segment * 8);
  for (int rank = 0; rank < c.gpu_count(); ++rank) {
    const auto ref = c.locate_gpu(c.gpu(rank));
    ASSERT_TRUE(ref.valid());
    EXPECT_EQ(ref.host * 8 + ref.rail, rank);
  }
}

TEST_P(HpnGrid, EveryLinkHasConsistentReverse) {
  const Cluster c = build_hpn(config());
  for (const Link& l : c.topo.links()) {
    const Link& rev = c.topo.link(l.reverse);
    EXPECT_EQ(rev.reverse, l.id);
    EXPECT_EQ(rev.src, l.dst);
    EXPECT_EQ(rev.dst, l.src);
    EXPECT_EQ(rev.kind, l.kind);
  }
}

TEST_P(HpnGrid, AllNicPairsRoutable) {
  const Cluster c = build_hpn(config());
  routing::Router r{c.topo};
  // Spot-check the extreme pairs: first and last host, every rail.
  const int last = c.gpu_count() - 8;
  for (int rail = 0; rail < 8; ++rail) {
    const int a = rail, b = last + rail;
    if (a == b) continue;
    EXPECT_GT(r.distance(c.nic_of(a).nic, c.nic_of(b).nic), 0)
        << "rail " << rail << " unroutable";
  }
}

TEST_P(HpnGrid, TracedPathsMatchDistances) {
  const Cluster c = build_hpn(config());
  routing::Router r{c.topo};
  const int last = c.gpu_count() - 8;
  for (std::uint16_t sport = 0; sport < 16; ++sport) {
    const NodeId src = c.nic_of(0).nic;
    const NodeId dst = c.nic_of(last).nic;
    if (src == dst) break;
    const routing::Path p =
        r.trace(src, dst, routing::FiveTuple{.src_ip = 1, .dst_ip = 2, .src_port = sport});
    ASSERT_TRUE(p.valid());
    EXPECT_EQ(static_cast<int>(p.hops()), r.distance(src, dst));
    // Chain integrity and liveness.
    for (std::size_t i = 0; i < p.links.size(); ++i) {
      EXPECT_TRUE(c.topo.is_up(p.links[i]));
      if (i > 0) {
        EXPECT_EQ(c.topo.link(p.links[i - 1]).dst, c.topo.link(p.links[i]).src);
      }
    }
  }
}

TEST_P(HpnGrid, TorChipBudgetRespected) {
  const Cluster c = build_hpn(config());
  for (const NodeId tor : c.tors) {
    Bandwidth total = Bandwidth::zero();
    for (const LinkId l : c.topo.out_links(tor)) total += c.topo.link(l).capacity;
    EXPECT_LE(total.as_bits_per_sec(), Bandwidth::tbps(51.2).as_bits_per_sec() + 1.0);
  }
}

constexpr GridParam kGrid[] = {
    {1, 4, 1, true, true, true},  {2, 4, 1, true, true, true},
    {2, 8, 1, true, true, true},  {4, 4, 1, true, true, true},
    {2, 4, 2, true, true, true},  {2, 4, 1, false, false, true},
    {2, 4, 1, true, false, true}, {2, 4, 1, true, true, false},
    {3, 6, 1, true, true, true},  {2, 4, 3, true, true, true},
};

INSTANTIATE_TEST_SUITE_P(
    Grid, HpnGrid, ::testing::ValuesIn(kGrid), ::testing::PrintToStringParamName());

class FatTreeGrid : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeGrid, ClassicalArithmetic) {
  const int k = GetParam();
  const Cluster c = build_fat_tree(FatTreeConfig{.k = k});
  EXPECT_EQ(static_cast<int>(c.hosts.size()), k * k * k / 4);
  EXPECT_EQ(static_cast<int>(c.tors.size()), k * k / 2);
  EXPECT_EQ(static_cast<int>(c.aggs.size()), k * k / 2);
  EXPECT_EQ(static_cast<int>(c.cores.size()), k * k / 4);
  EXPECT_TRUE(validate(c).empty());
  // Full bisection: every host pair reachable in <= 6 hops.
  routing::Router r{c.topo};
  const NodeId a = c.nic_of(0).nic;
  const NodeId b = c.nic_of(static_cast<int>(c.hosts.size()) - 1).nic;
  const int d = r.distance(a, b);
  EXPECT_GT(d, 0);
  EXPECT_LE(d, 6);
}

INSTANTIATE_TEST_SUITE_P(Ks, FatTreeGrid, ::testing::Values(4, 6, 8, 10),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           std::string name = "k";
                           name += std::to_string(param_info.param);
                           return name;
                         });

}  // namespace
}  // namespace hpn::topo
