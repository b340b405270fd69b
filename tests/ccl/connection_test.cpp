#include "ccl/connection.h"

#include <gtest/gtest.h>

#include <set>

#include "topo/builders.h"

namespace hpn::ccl {
namespace {

using topo::Cluster;
using topo::HpnConfig;

class ConnectionTest : public ::testing::Test {
 protected:
  Cluster c = topo::build_hpn(HpnConfig::tiny());
  routing::Router r{c.topo};

  /// Distinct fabric links across a pair's connections: the disjointness
  /// observable.
  std::size_t distinct_fabric_links(const ConnectionManager& cm,
                                    const std::vector<ConnId>& ids) const {
    std::set<LinkId> links;
    for (const ConnId id : ids) {
      for (const LinkId l : cm.connection(id).path.links) {
        if (c.topo.link(l).kind == topo::LinkKind::kFabric) links.insert(l);
      }
    }
    return links.size();
  }
};

TEST_F(ConnectionTest, EstablishSpreadsAcrossPlanes) {
  ConnectionManager cm{c, r};
  const auto& ids = cm.establish(0, 8);  // host0 -> host1, rail 0
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(cm.connection(ids[0]).src_port_index, 0);
  EXPECT_EQ(cm.connection(ids[1]).src_port_index, 1);
  for (const ConnId id : ids) EXPECT_TRUE(cm.connection(id).path.valid());
}

TEST_F(ConnectionTest, EstablishIsCached) {
  ConnectionManager cm{c, r};
  const auto& a = cm.establish(0, 8);
  const auto& b = cm.establish(0, 8);
  EXPECT_EQ(&a, &b);
}

TEST_F(ConnectionTest, CrossSegmentPathsAreFabricDisjoint) {
  ConnectionConfig cfg;
  cfg.conns_per_pair = 4;
  ConnectionManager cm{c, r, cfg};
  // host0 (segment 0) -> host4 (segment 1), rail 0: paths traverse aggs.
  const auto& ids = cm.establish(0, 4 * 8);
  ASSERT_EQ(ids.size(), 4u);
  // Each cross-segment path has 2 fabric links (ToR->Agg, Agg->ToR); all
  // pairwise disjoint -> 8 distinct.
  EXPECT_EQ(distinct_fabric_links(cm, ids), 8u);
}

TEST_F(ConnectionTest, NonDisjointModeMayCollide) {
  ConnectionConfig cfg;
  cfg.conns_per_pair = 4;
  cfg.disjoint_paths = false;
  ConnectionManager cm{c, r, cfg};
  const auto& ids = cm.establish(0, 4 * 8);
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_LE(distinct_fabric_links(cm, ids), 8u);
}

TEST_F(ConnectionTest, WqeLeastLoadedPick) {
  ConnectionManager cm{c, r};
  const auto ids = cm.establish(0, 8);
  cm.post_wqe(ids[0], DataSize::megabytes(10));
  EXPECT_EQ(cm.pick(ids), ids[1]);
  cm.post_wqe(ids[1], DataSize::megabytes(20));
  EXPECT_EQ(cm.pick(ids), ids[0]);
  cm.complete_wqe(ids[1], DataSize::megabytes(20));
  EXPECT_EQ(cm.pick(ids), ids[1]);
}

TEST_F(ConnectionTest, WqeCounterNeverNegative) {
  ConnectionManager cm{c, r};
  const auto ids = cm.establish(0, 8);
  EXPECT_THROW(cm.complete_wqe(ids[0], DataSize::bytes(1)), CheckError);
}

TEST_F(ConnectionTest, RoundRobinWhenLoadBalanceOff) {
  ConnectionConfig cfg;
  cfg.wqe_load_balance = false;
  ConnectionManager cm{c, r, cfg};
  const auto ids = cm.establish(0, 8);
  cm.post_wqe(ids[0], DataSize::megabytes(100));  // would repel an LB pick
  EXPECT_EQ(cm.pick(ids), ids[0]);  // round robin ignores load
  EXPECT_EQ(cm.pick(ids), ids[1]);
}

TEST_F(ConnectionTest, PathFailoverToSurvivingPort) {
  ConnectionManager cm{c, r};
  const auto ids = cm.establish(0, 8);
  const ConnId plane0_conn = ids[0];
  ASSERT_EQ(cm.connection(plane0_conn).src_port_index, 0);
  // Kill the source's plane-0 access link.
  c.topo.set_duplex_up(c.nic_of(0).access[0], false);
  r.invalidate();
  const routing::Path& p = cm.path_of(plane0_conn);
  ASSERT_TRUE(p.valid());
  EXPECT_EQ(cm.connection(plane0_conn).src_port_index, 1);  // moved ports
}

TEST_F(ConnectionTest, UnreachableDestinationGivesInvalidPath) {
  ConnectionManager cm{c, r};
  const auto ids = cm.establish(0, 8);
  c.topo.set_duplex_up(c.nic_of(8).access[0], false);
  c.topo.set_duplex_up(c.nic_of(8).access[1], false);
  r.invalidate();
  for (const ConnId id : ids) EXPECT_FALSE(cm.path_of(id).valid());
}

TEST_F(ConnectionTest, SelfConnectionRejected) {
  ConnectionManager cm{c, r};
  EXPECT_THROW(cm.establish(3, 3), CheckError);
}

TEST_F(ConnectionTest, SearchSpaceIsTorLocal) {
  // Table 1: in HPN the disjoint-path search only enumerates the ToR's
  // uplinks. All found paths' first fabric hop leaves the source's ToR.
  ConnectionConfig cfg;
  cfg.conns_per_pair = 4;
  ConnectionManager cm{c, r, cfg};
  const auto& ids = cm.establish(0, 4 * 8);
  for (const ConnId id : ids) {
    const Connection& conn = cm.connection(id);
    const auto& att = c.nic_of(0);
    const NodeId expect_tor =
        att.tor[static_cast<std::size_t>(conn.src_port_index)];
    // links[0] = access, links[1] = ToR uplink.
    ASSERT_GE(conn.path.links.size(), 2u);
    EXPECT_EQ(c.topo.link(conn.path.links[1]).src, expect_tor);
  }
}

}  // namespace
}  // namespace hpn::ccl
