// Router differential suite. Two oracles, both kept verbatim from the code
// they replaced:
//   * tests/support/reference_shortest_path.h, the materializer's original
//     private BFS: fuzz::route_flows (routing::Router::first_path, the one
//     path router materialize() and serve's add-job use) must give its
//     paths, unreachable pairs (empty paths) included;
//   * tests/support/reference_router.h, the Router with one whole-Pod BFS
//     per destination: the attachment-set Router must answer distance and
//     ecmp_links at every node, and first_path, trace and trace_via over
//     several 5-tuples for every ordered endpoint pair, identically; and
//     its buffer traces (trace_via_into from every access port, trace_into;
//     one CRC per trace) must give the reference's hashed paths over 8
//     tuples per pair of the first 8 endpoints, under vendor-family and
//     per-switch seeds and per-port Core hashing.
// Over random_scenario draws of every fuzz topology kind plus a small Pod,
// four shapes are swept:
//   1. every materialize() flow, and which flows it drops;
//   2. every ordered endpoint pair on the all-up topology;
//   3. the same pairs on serve's planning shape: duplex cable kills plus a
//      ToR crash, the asymmetric failures under which a dual-homed NIC can
//      look one hop closer than its ToR;
//   4. the same pairs after one endpoint of a shared attachment set loses
//      one port: uplink only, downlink only, or both directions (against
//      the reference router only: the materializer's BFS has no notion of
//      a half-down cable).
#include <algorithm>
#include <array>
#include <set>
#include <span>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "routing/router.h"
#include "tests/fuzz/generator.h"
#include "tests/support/reference_router.h"
#include "tests/support/reference_shortest_path.h"

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

constexpr std::uint16_t kTuples = 3;

struct Tally {
  std::size_t queries = 0;
  std::size_t mismatches = 0;
  std::string first;  ///< the first mismatch, for the failure message

  void expect(bool same, const char* query, NodeId at, NodeId dst) {
    ++queries;
    if (same || mismatches++ > 0) return;
    std::ostringstream os;
    os << query << " at node " << at << " toward " << dst;
    first = os.str();
  }
};

std::span<const NodeId> pair_endpoints(const Materialized& m) {
  return {m.endpoints.data(), std::min(kPairEndpoints, m.endpoints.size())};
}

/// Routes every ordered pair among `eps` with route_flows and counts the
/// pairs whose path differs from the materializer's original BFS.
void tally_bfs_pairs(const topo::Topology& t, std::span<const NodeId> eps, Tally& tally) {
  std::vector<Materialized::Flow> pairs;
  for (const NodeId src : eps) {
    for (const NodeId dst : eps) {
      if (src == dst) continue;
      Materialized::Flow f;
      f.src = src;
      f.dst = dst;
      pairs.push_back(f);
    }
  }
  route_flows(t, pairs);
  for (const Materialized::Flow& f : pairs) {
    tally.expect(f.path == reference::bfs_path(t, f.src, f.dst), "route_flows", f.src,
                 f.dst);
  }
}

/// Asks routing::Router and the per-destination reference router every
/// query toward each endpoint in `eps`: distance and ECMP group at every
/// node, then first_path and hashed trace/trace_via (every first hop) over
/// kTuples source ports from every other endpoint. One router of each kind
/// serves the sweep, so shared set fields are reused across destinations.
void tally_router_queries(const topo::Topology& t, std::span<const NodeId> eps, Tally& tally) {
  routing::Router got{t};
  reference::Router want{t};
  for (const NodeId dst : eps) {
    for (const topo::Node& node : t.nodes()) {
      tally.expect(got.distance(node.id, dst) == want.distance(node.id, dst), "distance",
                   node.id, dst);
      tally.expect(got.ecmp_links(node.id, dst) == want.ecmp_links(node.id, dst), "ecmp_links",
                   node.id, dst);
    }
    for (const NodeId src : eps) {
      if (src == dst) continue;
      tally.expect(got.first_path(src, dst).links == want.first_path(src, dst).links,
                   "first_path", src, dst);
      for (std::uint16_t k = 0; k < kTuples; ++k) {
        const routing::FiveTuple ft{.src_ip = src.value(),
                                    .dst_ip = dst.value(),
                                    .src_port = static_cast<std::uint16_t>(1000 + 7919 * k)};
        tally.expect(got.trace(src, dst, ft).links == want.trace(src, dst, ft).links, "trace",
                     src, dst);
        for (const LinkId first : t.out_links(src)) {
          tally.expect(
              got.trace_via(first, dst, ft).links == want.trace_via(first, dst, ft).links,
              "trace_via", src, dst);
        }
      }
    }
  }
}

/// The hash configs the buffer traces rotate through, one per draw.
routing::HashConfig trace_hash(std::size_t draw) {
  switch (draw % 3) {
    case 0: return {.seeds = routing::SeedPolicy::kVendorFamily};
    case 1: return {.seeds = routing::SeedPolicy::kPerSwitch};
    default: return {.seeds = routing::SeedPolicy::kVendorFamily, .per_port_at_core = true};
  }
}

constexpr std::uint16_t kBufferTuples = 8;
constexpr std::size_t kBufferEndpoints = 8;

/// Router::trace_via_into (from every access port) and trace_into, one
/// reused buffer each, against the reference router's trace_via and trace
/// over kBufferTuples tuples per ordered pair of the first kBufferEndpoints
/// endpoints, under `hash`.
void tally_buffer_traces(const topo::Topology& t, std::span<const NodeId> all,
                         routing::HashConfig hash, Tally& tally) {
  const std::span<const NodeId> eps = all.first(std::min(kBufferEndpoints, all.size()));
  routing::Router got{t, hash};
  reference::Router want{t, hash};
  std::vector<LinkId> via;
  std::vector<LinkId> direct;
  for (const NodeId dst : eps) {
    for (const NodeId src : eps) {
      if (src == dst) continue;
      for (std::uint16_t k = 0; k < kBufferTuples; ++k) {
        const routing::FiveTuple ft{.src_ip = src.value(),
                                    .dst_ip = dst.value(),
                                    .src_port = static_cast<std::uint16_t>(49152 + 97 * k)};
        for (const LinkId first : t.out_links(src)) {
          const routing::Path p = want.trace_via(first, dst, ft);
          const bool valid = got.trace_via_into(first, dst, ft, via);
          tally.expect(valid == p.valid() && via == p.links, "trace_via_into", src, dst);
        }
        const routing::Path p = want.trace(src, dst, ft);
        const bool valid = got.trace_into(src, dst, ft, direct);
        tally.expect(valid == p.valid() && direct == p.links, "trace_into", src, dst);
      }
    }
  }
}

void tally_pairs(const Materialized& m, std::size_t draw, Tally& tally) {
  tally_bfs_pairs(m.cluster.topo, pair_endpoints(m), tally);
  tally_router_queries(m.cluster.topo, pair_endpoints(m), tally);
  tally_buffer_traces(m.cluster.topo, pair_endpoints(m), trace_hash(draw), tally);
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
  const std::vector<Scenario> draws = oracle_draws();
  for (std::size_t i = 0; i < draws.size(); ++i) tally_pairs(materialize(draws[i]), i, tally);
  EXPECT_EQ(tally.mismatches, 0u) << "of " << tally.queries << " queries; first: " << tally.first;
}

TEST(RouterOracle, PlanningShapeEndpointPairsMatchReference) {
  Tally tally;
  const std::vector<Scenario> draws = oracle_draws();
  for (std::size_t i = 0; i < draws.size(); ++i) {
    const Scenario& s = draws[i];
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
    tally_pairs(m, i, tally);
  }
  EXPECT_EQ(tally.mismatches, 0u) << "of " << tally.queries << " queries; first: " << tally.first;
}

bool is_switch(const topo::Topology& t, NodeId n) {
  return reference::is_switch(t.node(n).kind);
}

/// Fails one port of one endpoint (chosen among the compared endpoints):
/// its uplink only, its downlink only, or both directions, by `variant`.
/// Returns whether the endpoint was a NIC sharing a multi-ToR attachment
/// set with another compared endpoint before the failure.
bool fail_one_port(Materialized& m, Rng& rng, std::size_t variant) {
  topo::Topology& t = m.cluster.topo;
  const auto eps = pair_endpoints(m);
  const NodeId victim = eps[rng.uniform_index(eps.size())];
  std::vector<LinkId> ports;
  for (const LinkId l : t.out_links(victim)) {
    if (is_switch(t, t.link(l).dst)) ports.push_back(l);
  }
  if (ports.empty()) return false;
  const auto tors_of = [&t](NodeId n) {
    std::set<NodeId> tors;
    for (const LinkId l : t.out_links(n)) {
      if (is_switch(t, t.link(l).dst)) tors.insert(t.link(l).dst);
    }
    return tors;
  };
  const std::set<NodeId> set = tors_of(victim);
  const bool shared = !is_switch(t, victim) && set.size() >= 2 &&
                      std::any_of(eps.begin(), eps.end(), [&](NodeId other) {
                        return other != victim && tors_of(other) == set;
                      });
  const LinkId port = ports[rng.uniform_index(ports.size())];
  switch (variant % 3) {
    case 0: t.set_link_up(port, false); break;                   // endpoint -> ToR
    case 1: t.set_link_up(t.link(port).reverse, false); break;  // ToR -> endpoint
    default: t.set_duplex_up(port, false); break;
  }
  return shared;
}

TEST(RouterOracle, AsymmetricAccessFailureEndpointPairsMatchReference) {
  Tally tally;
  std::array<std::size_t, 3> shared_victims{};
  const std::vector<Scenario> draws = oracle_draws();
  for (std::size_t i = 0; i < draws.size(); ++i) {
    Materialized m = materialize(draws[i]);
    Rng rng{draws[i].seed ^ 0xA5711E7ULL};
    if (fail_one_port(m, rng, i)) ++shared_victims[i % 3];
    // The materializer's BFS treats a cable as one unit, so it is no
    // oracle for a half-down link; the per-destination router is.
    tally_router_queries(m.cluster.topo, pair_endpoints(m), tally);
    tally_buffer_traces(m.cluster.topo, pair_endpoints(m), trace_hash(i), tally);
  }
  EXPECT_EQ(tally.mismatches, 0u) << "of " << tally.queries << " queries; first: " << tally.first;
  // The sweep must really split shared dual-ToR sets, in every variant.
  for (const std::size_t n : shared_victims) EXPECT_GT(n, 200u) << "shared victims per variant";
}

TEST(RouterOracle, HpnPodBuildsOneFieldPerSegmentAndRail) {
  Scenario pod;
  pod.topology = TopologyKind::kHpnPod;
  pod.size_knob = 4;  // hosts per segment
  pod.wiring = 3;     // segments; materialize() builds 2 rails per host
  const Materialized m = materialize(pod);
  std::vector<Materialized::Flow> pairs;
  for (const NodeId src : m.endpoints) {
    for (const NodeId dst : m.endpoints) {
      if (src == dst) continue;
      Materialized::Flow f;
      f.src = src;
      f.dst = dst;
      pairs.push_back(f);
    }
  }
  const routing::Router::Stats st = route_flows(m.cluster.topo, pairs);
  EXPECT_EQ(m.endpoints.size(), 24u);
  EXPECT_EQ(st.destinations_resolved, 24u);
  EXPECT_EQ(st.fields_built, 3u * 2u);
  for (const Materialized::Flow& f : pairs) EXPECT_FALSE(f.path.empty());
}

}  // namespace
}  // namespace hpn::fuzz
