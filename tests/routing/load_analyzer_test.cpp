#include "routing/load_analyzer.h"

#include <gtest/gtest.h>

#include <set>

#include "topo/builders.h"

namespace hpn::routing {
namespace {

using topo::Cluster;
using topo::LinkKind;
using topo::NodeKind;

std::vector<FlowSpec> cross_pod_flows(const Cluster& c, int n, int ranks_per_pod) {
  std::vector<FlowSpec> flows;
  for (int i = 0; i < n; ++i) {
    const int src_rank = i % ranks_per_pod;
    const int dst_rank = ranks_per_pod + i % ranks_per_pod;
    flows.push_back(FlowSpec{
        .src = c.nic_of(src_rank).nic,
        .dst = c.nic_of(dst_rank).nic,
        .tuple = FiveTuple{.src_ip = c.nic_of(src_rank).nic.value(),
                           .dst_ip = c.nic_of(dst_rank).nic.value(),
                           .src_port = static_cast<std::uint16_t>(1000 + i)},
        .weight = 1.0});
  }
  return flows;
}

TEST(LoadAnalyzer, AccumulatesPerLink) {
  Cluster c = topo::build_hpn(topo::HpnConfig::tiny());
  Router r{c.topo};
  LoadAnalyzer la{r};
  std::vector<FlowSpec> flows{{.src = c.nic_of(0).nic,
                               .dst = c.nic_of(8).nic,
                               .tuple = FiveTuple{.src_ip = 1, .dst_ip = 2, .src_port = 3},
                               .weight = 2.0}};
  la.run(flows);
  EXPECT_EQ(la.unroutable(), 0);
  // 2-hop path => 2 loaded links, each with weight 2.
  EXPECT_EQ(la.loads().size(), 2u);
  for (const auto& [lid, ll] : la.loads()) {
    EXPECT_DOUBLE_EQ(ll.load, 2.0);
    EXPECT_EQ(ll.flow_count, 1);
  }
}

TEST(LoadAnalyzer, CountsUnroutable) {
  Cluster c = topo::build_hpn(topo::HpnConfig::tiny());
  const auto& att = c.nic_of(8);
  c.topo.set_duplex_up(att.access[0], false);
  c.topo.set_duplex_up(att.access[1], false);
  Router r{c.topo};
  LoadAnalyzer la{r};
  la.run({{.src = c.nic_of(0).nic, .dst = att.nic, .tuple = {}, .weight = 1.0}});
  EXPECT_EQ(la.unroutable(), 1);
  EXPECT_TRUE(la.loads().empty());
}

TEST(LoadAnalyzer, LoadsOnListsLinksInAscendingIdOrder) {
  // loads() is a hash map; loads_on must not hand its bucket order to the
  // float sums in effective_entropy().
  topo::DcnPlusConfig cfg;
  cfg.pods = 2;
  const Cluster c = topo::build_dcn_plus(cfg);
  Router r{c.topo};
  LoadAnalyzer la{r};
  la.run(cross_pod_flows(c, 512, 4 * 16 * 8));
  for (const NodeKind kind : {NodeKind::kTor, NodeKind::kAgg}) {
    const std::vector<LinkLoad> loads = la.loads_on(LinkKind::kFabric, kind);
    ASSERT_GT(loads.size(), 1u);
    for (std::size_t i = 1; i < loads.size(); ++i) {
      EXPECT_LT(loads[i - 1].link, loads[i].link);
    }
  }
}

TEST(LoadAnalyzer, EntropyMetric) {
  std::vector<LinkLoad> even{{LinkId{0}, 1.0, 1}, {LinkId{1}, 1.0, 1}};
  EXPECT_NEAR(LoadAnalyzer::effective_entropy(even, 2), 1.0, 1e-12);
  std::vector<LinkLoad> collapsed{{LinkId{0}, 2.0, 2}};
  EXPECT_NEAR(LoadAnalyzer::effective_entropy(collapsed, 2), 0.0, 1e-12);
}

// The paper's core claim at the routing level: cascaded identical hashes
// collapse path diversity in a 3-tier Clos; independent seeds restore it.
TEST(LoadAnalyzer, CascadedHashPolarizationInDcnPlus) {
  topo::DcnPlusConfig cfg;
  cfg.pods = 2;
  const Cluster c = topo::build_dcn_plus(cfg);
  const int ranks_per_pod = 4 * 16 * 8;

  auto used_core_links = [&](SeedPolicy policy) {
    Router r{c.topo, HashConfig{.seeds = policy}};
    LoadAnalyzer la{r};
    la.run(cross_pod_flows(c, 512, ranks_per_pod));
    EXPECT_EQ(la.unroutable(), 0);
    return la.loads_on(LinkKind::kFabric, NodeKind::kAgg).size();  // Agg->Core
  };

  const auto polarized = used_core_links(SeedPolicy::kIdentical);
  const auto spread = used_core_links(SeedPolicy::kPerSwitch);
  // Identical seeds must use strictly fewer distinct Agg->Core links.
  EXPECT_LT(static_cast<double>(polarized), 0.6 * static_cast<double>(spread))
      << "polarized=" << polarized << " spread=" << spread;
}

TEST(LoadAnalyzer, DualPlaneAvoidsDownstreamHashEntirely) {
  // In HPN dual-plane, the Agg -> dst-ToR choice is singular, so the load
  // on the two ToR->NIC ports is exactly the host's port split, independent
  // of seed policy (Fig 13b evenness by construction).
  auto cfg = topo::HpnConfig::tiny();
  const Cluster c = topo::build_hpn(cfg);
  Router r{c.topo, HashConfig{.seeds = SeedPolicy::kIdentical}};

  // 32 flows from segment-0 hosts to one segment-1 NIC, alternating the
  // source port (plane) as the ccl layer would.
  const int dst_rank = 4 * 8;
  std::vector<FlowSpec> flows;
  std::vector<Path> paths;
  LoadAnalyzer la{r};
  int plane0 = 0, plane1 = 0;
  for (int i = 0; i < 32; ++i) {
    const int src_rank = (i % 4) * 8;  // hosts 0..3, rail 0
    const auto& att = c.nic_of(src_rank);
    const FiveTuple ft{.src_ip = att.nic.value(),
                       .dst_ip = c.nic_of(dst_rank).nic.value(),
                       .src_port = static_cast<std::uint16_t>(i)};
    const Path p = r.trace_via(att.access[static_cast<std::size_t>(i % 2)],
                               c.nic_of(dst_rank).nic, ft);
    ASSERT_TRUE(p.valid());
    const auto& last = c.topo.link(p.links.back());
    (c.topo.node(last.src).loc.plane == 0 ? plane0 : plane1) += 1;
  }
  EXPECT_EQ(plane0, 16);
  EXPECT_EQ(plane1, 16);
}

}  // namespace
}  // namespace hpn::routing
