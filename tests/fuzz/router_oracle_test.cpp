// Router differential suite: fuzz::route_flows (routing::Router::first_path,
// the one path router materialize() and serve's add-job use) against the
// materializer's original private BFS, kept verbatim as the oracle in
// tests/support/reference_shortest_path.h. Over random_scenario draws of
// every fuzz topology kind plus a small Pod, three shapes must route
// identically, unreachable pairs (empty paths) included:
//   1. every materialize() flow, and which flows it drops;
//   2. every ordered endpoint pair on the all-up topology;
//   3. the same pairs on serve's planning shape: duplex cable kills plus a
//      ToR crash, the asymmetric failures under which a dual-homed NIC can
//      look one hop closer than its ToR.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/support/reference_shortest_path.h"
#include "tests/support/scenario.h"

namespace hpn::fuzz {
namespace {

constexpr std::uint64_t kDraws = 3'000;
constexpr std::size_t kPairEndpoints = 24;

std::vector<Scenario> oracle_draws() {
  std::vector<Scenario> draws;
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    draws.push_back(random_scenario(std::uint64_t{0x0DAC1E00} + i));
  }
  Scenario pod;
  pod.seed = 4242;
  pod.topology = TopologyKind::kHpnPod;
  pod.size_knob = 4;  // hosts per segment
  pod.wiring = 3;     // segments
  for (std::uint32_t f = 0; f < 16; ++f) pod.flows.push_back({f, 7 * f + 3, 65'536, 100.0});
  draws.push_back(pod);
  return draws;
}

struct Tally {
  std::size_t pairs = 0;
  std::size_t mismatches = 0;
};

/// Routes every ordered pair among the first kPairEndpoints endpoints with
/// route_flows and counts the pairs whose path differs from the oracle.
void tally_pairs(const Materialized& m, Tally& tally) {
  const topo::Topology& t = m.cluster.topo;
  const std::size_t k = std::min(kPairEndpoints, m.endpoints.size());
  std::vector<Materialized::Flow> pairs;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) continue;
      Materialized::Flow f;
      f.src = m.endpoints[i];
      f.dst = m.endpoints[j];
      pairs.push_back(f);
    }
  }
  route_flows(t, pairs);
  tally.pairs += pairs.size();
  for (const Materialized::Flow& f : pairs) {
    if (f.path != reference::bfs_path(t, f.src, f.dst)) ++tally.mismatches;
  }
}

TEST(RouterOracle, MaterializedFlowsMatchReference) {
  std::set<TopologyKind> kinds;
  std::size_t flows = 0;
  for (const Scenario& s : oracle_draws()) {
    kinds.insert(s.topology);
    const Materialized m = materialize(s);
    const topo::Topology& t = m.cluster.topo;
    // The oracle's materialization: same endpoint mapping, unreachable
    // pairs dropped.
    std::vector<Materialized::Flow> want;
    const auto n = static_cast<std::uint32_t>(m.endpoints.size());
    for (const ScenarioFlow& sf : s.flows) {
      const std::uint32_t src_idx = sf.src % n;
      std::uint32_t dst_idx = sf.dst % n;
      if (dst_idx == src_idx) dst_idx = (dst_idx + 1) % n;
      if (dst_idx == src_idx) continue;
      Materialized::Flow f;
      f.src = m.endpoints[src_idx];
      f.dst = m.endpoints[dst_idx];
      f.path = reference::bfs_path(t, f.src, f.dst);
      if (!f.path.empty()) want.push_back(f);
    }
    ASSERT_EQ(m.flows.size(), want.size()) << s.to_text();
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(m.flows[i].src, want[i].src) << s.to_text();
      EXPECT_EQ(m.flows[i].dst, want[i].dst) << s.to_text();
      EXPECT_EQ(m.flows[i].path, want[i].path) << s.to_text() << "flow " << i;
    }
    flows += want.size();
  }
  EXPECT_EQ(kinds.size(), 9u);  // the eight fuzz kinds plus kHpnPod
  EXPECT_GT(flows, kDraws);
}

TEST(RouterOracle, AllUpEndpointPairsMatchReference) {
  Tally tally;
  for (const Scenario& s : oracle_draws()) tally_pairs(materialize(s), tally);
  EXPECT_EQ(tally.mismatches, 0u) << "of " << tally.pairs << " pairs";
}

TEST(RouterOracle, PlanningShapeEndpointPairsMatchReference) {
  Tally tally;
  for (const Scenario& s : oracle_draws()) {
    Materialized m = materialize(s);
    topo::Topology& t = m.cluster.topo;
    Rng rng{s.seed ^ 0x5EED0F0A17ULL};
    const auto kills = rng.uniform_int(1, 3);
    for (std::int64_t k = 0; k < kills && !m.cables.empty(); ++k) {
      t.set_duplex_up(m.cables[rng.uniform_index(m.cables.size())], false);
    }
    if (!m.cluster.tors.empty()) {
      const NodeId tor = m.cluster.tors[rng.uniform_index(m.cluster.tors.size())];
      for (const LinkId l : t.out_links(tor)) t.set_duplex_up(l, false);
    }
    tally_pairs(m, tally);
  }
  EXPECT_EQ(tally.mismatches, 0u) << "of " << tally.pairs << " pairs";
}

}  // namespace
}  // namespace hpn::fuzz
