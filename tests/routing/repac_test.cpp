#include "routing/repac.h"

#include <gtest/gtest.h>

#include "topo/builders.h"

namespace hpn::routing {
namespace {

using topo::Cluster;
using topo::HpnConfig;

class RePaCTest : public ::testing::Test {
 protected:
  Cluster c = topo::build_hpn(HpnConfig::tiny());
  Router r{c.topo};
  RePaC repac{r};

  FiveTuple base(int src_rank, int dst_rank) const {
    return FiveTuple{.src_ip = c.nic_of(src_rank).nic.value(),
                     .dst_ip = c.nic_of(dst_rank).nic.value(),
                     .src_port = 10'000};
  }
};

TEST_F(RePaCTest, PredictEqualsRouterTrace) {
  const auto& att = c.nic_of(0);
  const NodeId dst = c.nic_of(4 * 8).nic;
  const FiveTuple ft = base(0, 4 * 8);
  const Path predicted = repac.predict(att.access[0], dst, ft);
  const Path traced = r.trace_via(att.access[0], dst, ft);
  ASSERT_TRUE(predicted.valid());
  EXPECT_EQ(predicted.links, traced.links);
}

TEST_F(RePaCTest, SteerOntoEveryUplink) {
  // The core RePaC capability: for *each* of the source ToR's uplinks, find
  // a sport that routes through it. This is the Algorithm 1 primitive.
  const auto& att = c.nic_of(0);
  const NodeId dst = c.nic_of(4 * 8).nic;
  const NodeId tor = att.tor[0];
  int steered = 0;
  for (const LinkId uplink : r.ecmp_links(tor, dst)) {
    const auto sport = repac.steer_onto(att.access[0], dst, base(0, 4 * 8), uplink);
    ASSERT_TRUE(sport.has_value());
    const Path p = repac.predict(
        att.access[0], dst,
        FiveTuple{.src_ip = att.nic.value(), .dst_ip = dst.value(), .src_port = *sport});
    EXPECT_NE(std::find(p.links.begin(), p.links.end(), uplink), p.links.end());
    ++steered;
  }
  EXPECT_EQ(steered, 4);  // tiny() has 4 uplink choices
}

TEST_F(RePaCTest, SteerOntoUnreachableLinkFails) {
  // A plane-1 uplink can never be reached from a plane-0 source port.
  const auto& att = c.nic_of(0);
  const NodeId dst = c.nic_of(4 * 8).nic;
  const auto plane1_uplinks = r.ecmp_links(att.tor[1], dst);
  ASSERT_FALSE(plane1_uplinks.empty());
  EXPECT_FALSE(
      repac.steer_onto(att.access[0], dst, base(0, 4 * 8), plane1_uplinks[0], 512)
          .has_value());
}

TEST_F(RePaCTest, SearchBudgetBoundsWork) {
  // Table 1's point: the search space in HPN is the ToR fan-out, so finding
  // any given uplink takes only a handful of probes.
  const auto& att = c.nic_of(0);
  const NodeId dst = c.nic_of(4 * 8).nic;
  const auto uplinks = r.ecmp_links(att.tor[0], dst);
  for (const LinkId l : uplinks) {
    RePaC fresh{r};
    ASSERT_TRUE(fresh.steer_onto(att.access[0], dst, base(0, 4 * 8), l).has_value());
    EXPECT_LE(fresh.probes_used(), 64);
  }
}

}  // namespace
}  // namespace hpn::routing
