#include "flowsim/maxmin.h"

#include <gtest/gtest.h>

#include "tests/support/random_scenarios.h"
#include "tests/support/reference_maxmin.h"
#include "topo/topology.h"

namespace hpn::flowsim {
namespace {

using topo::LinkKind;
using topo::NodeKind;
using topo::Topology;

constexpr double kGbps = 1e9;

class MaxMinTest : public ::testing::Test {
 protected:
  Topology t;
  NodeId a{}, b{}, c{}, d{};
  LinkId ab{}, bc{}, cd{};

  void SetUp() override {
    a = t.add_node(NodeKind::kNic, "a");
    b = t.add_node(NodeKind::kTor, "b");
    c = t.add_node(NodeKind::kTor, "c");
    d = t.add_node(NodeKind::kNic, "d");
    ab = t.add_duplex_link(a, b, LinkKind::kAccess, Bandwidth::gbps(100), Duration::micros(1))
             .forward;
    bc = t.add_duplex_link(b, c, LinkKind::kFabric, Bandwidth::gbps(40), Duration::micros(1))
             .forward;
    cd = t.add_duplex_link(c, d, LinkKind::kAccess, Bandwidth::gbps(100), Duration::micros(1))
             .forward;
  }

  /// Cold solve through a fresh IncrementalMaxMin, held to the reference
  /// solver's rates within 1e-6 relative.
  void solve(std::vector<FlowDemand>& flows) const {
    std::vector<FlowDemand> expected = flows;
    ReferenceMaxMinSolver{t}.solve(expected);
    cold_solve(t, flows);
    testsupport::expect_rates_near(testsupport::rates_of(flows),
                                   testsupport::rates_of(expected), 1e-6);
  }
};

TEST_F(MaxMinTest, SingleFlowTakesBottleneck) {
  std::vector<FlowDemand> flows{{.path = {ab, bc, cd}}};
  solve(flows);
  EXPECT_NEAR(flows[0].rate_bps, 40 * kGbps, 1);
}

TEST_F(MaxMinTest, SingleFlowRespectsCap) {
  std::vector<FlowDemand> flows{{.path = {ab, bc, cd}, .cap_bps = 10 * kGbps}};
  solve(flows);
  EXPECT_NEAR(flows[0].rate_bps, 10 * kGbps, 1);
}

TEST_F(MaxMinTest, TwoFlowsShareEvenly) {
  std::vector<FlowDemand> flows{{.path = {ab, bc}}, {.path = {ab, bc}}};
  solve(flows);
  EXPECT_NEAR(flows[0].rate_bps, 20 * kGbps, 1);
  EXPECT_NEAR(flows[1].rate_bps, 20 * kGbps, 1);
}

TEST_F(MaxMinTest, CappedFlowReleasesShare) {
  // A capped at 5G; B should pick up the remaining 35G of the 40G link.
  std::vector<FlowDemand> flows{{.path = {ab, bc}, .cap_bps = 5 * kGbps},
                                {.path = {ab, bc}}};
  solve(flows);
  EXPECT_NEAR(flows[0].rate_bps, 5 * kGbps, 1);
  EXPECT_NEAR(flows[1].rate_bps, 35 * kGbps, 1);
}

TEST_F(MaxMinTest, ParkingLotFairness) {
  // Long flow over both access links, two cross flows one each. The long
  // flow is bottlenecked on bc (40G shared with nothing else here): all
  // three contend only pairwise on ab / cd.
  std::vector<FlowDemand> flows{
      {.path = {ab, bc, cd}},  // long
      {.path = {ab}},          // cross on first hop
      {.path = {cd}},          // cross on last hop
  };
  solve(flows);
  // Long flow: min(100/2, 40, 100/2) = 40.
  EXPECT_NEAR(flows[0].rate_bps, 40 * kGbps, 1);
  EXPECT_NEAR(flows[1].rate_bps, 60 * kGbps, 1);
  EXPECT_NEAR(flows[2].rate_bps, 60 * kGbps, 1);
}

TEST_F(MaxMinTest, EmptyPathGetsCap) {
  std::vector<FlowDemand> flows{{.path = {}, .cap_bps = 7 * kGbps}};
  solve(flows);
  EXPECT_NEAR(flows[0].rate_bps, 7 * kGbps, 1);
}

TEST_F(MaxMinTest, ManyFlowsConserveCapacity) {
  std::vector<FlowDemand> flows;
  for (int i = 0; i < 64; ++i) flows.push_back({.path = {ab, bc, cd}});
  solve(flows);
  double total = 0;
  for (const auto& f : flows) {
    EXPECT_NEAR(f.rate_bps, 40 * kGbps / 64, 1);
    total += f.rate_bps;
  }
  EXPECT_NEAR(total, 40 * kGbps, 64);
}

TEST_F(MaxMinTest, UnequalBottlenecksWaterfill) {
  // f1 on ab only, f2 on ab+bc. f2 bottlenecked at bc (40), f1 then gets
  // the rest of ab (60).
  std::vector<FlowDemand> flows{{.path = {ab}}, {.path = {ab, bc}}};
  solve(flows);
  EXPECT_NEAR(flows[1].rate_bps, 40 * kGbps, 1);
  EXPECT_NEAR(flows[0].rate_bps, 60 * kGbps, 1);
}

TEST_F(MaxMinTest, NoFlowsIsNoOp) {
  std::vector<FlowDemand> flows;
  EXPECT_NO_THROW(solve(flows));
}

}  // namespace
}  // namespace hpn::flowsim
