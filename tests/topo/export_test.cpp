#include "tests/support/export.h"

#include <gtest/gtest.h>

#include "topo/builders.h"

namespace hpn::topo {
namespace {

TEST(ExportDot, ContainsAllSwitchesAndValidSyntax) {
  const Cluster c = build_hpn(HpnConfig::tiny());
  const std::string dot = to_dot(c);
  EXPECT_EQ(dot.substr(0, 11), "graph hpn {");
  EXPECT_EQ(dot.back(), '\n');
  for (const NodeId tor : c.tors) {
    EXPECT_NE(dot.find("\"" + c.topo.node(tor).name + "\""), std::string::npos);
  }
  for (const NodeId agg : c.aggs) {
    EXPECT_NE(dot.find("\"" + c.topo.node(agg).name + "\""), std::string::npos);
  }
  // Balanced braces.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'), std::count(dot.begin(), dot.end(), '}'));
}

TEST(ExportDot, CollapseHostsShrinksOutput) {
  const Cluster c = build_hpn(HpnConfig::tiny());
  const std::string full = to_dot(c);
  ExportOptions opts;
  opts.collapse_hosts = true;
  const std::string collapsed = to_dot(c, opts);
  EXPECT_LT(collapsed.size(), full.size() * 6 / 10);
  EXPECT_NE(collapsed.find("\"host0\""), std::string::npos);
  EXPECT_EQ(collapsed.find(".nvsw"), std::string::npos);
}

TEST(ExportDot, DownLinksAreDashed) {
  Cluster c = build_hpn(HpnConfig::tiny());
  c.topo.set_duplex_up(c.nic_of(0).access[0], false);
  const std::string dot = to_dot(c);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST(ExportDot, UndirectedEmitsOneEdgePerCable) {
  const Cluster c = build_hpn(HpnConfig::tiny());
  const std::string dot = to_dot(c);
  std::size_t edges = 0, pos = 0;
  while ((pos = dot.find(" -- ", pos)) != std::string::npos) {
    ++edges;
    pos += 4;
  }
  EXPECT_EQ(edges, c.topo.link_count() / 2);
}

TEST(ExportJson, NodeAndLinkCountsMatch) {
  const Cluster c = build_hpn(HpnConfig::tiny());
  const std::string json = to_json(c);
  std::size_t ids = 0, pos = 0;
  while ((pos = json.find("{\"id\":", pos)) != std::string::npos) {
    ++ids;
    pos += 5;
  }
  EXPECT_EQ(ids, c.topo.node_count() + c.topo.link_count());
  EXPECT_NE(json.find("\"arch\": \"HPN\""), std::string::npos);
  // No trailing commas before closing brackets.
  EXPECT_EQ(json.find(",\n  ]"), std::string::npos);
}

TEST(ExportJson, LinkStateSerialized) {
  Cluster c = build_hpn(HpnConfig::tiny());
  EXPECT_EQ(to_json(c).find("\"up\": false"), std::string::npos);
  c.topo.set_link_up(c.nic_of(0).access[0], false);
  EXPECT_NE(to_json(c).find("\"up\": false"), std::string::npos);
}

}  // namespace
}  // namespace hpn::topo
