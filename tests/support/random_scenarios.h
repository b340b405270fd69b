// Shared randomized-scenario generation for the solver test harness:
// random multigraph topologies, random-walk flow paths, and rate-vector
// comparison helpers used by the differential, property, and
// incremental-consistency suites.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "flowsim/maxmin.h"
#include "tests/support/reference_maxmin.h"
#include "topo/topology.h"

namespace hpn::flowsim::testsupport {

struct RandomNet {
  topo::Topology topo;
  std::vector<LinkId> links;  ///< every unidirectional link id
};

/// A connected random multigraph: a spanning chain plus extra random
/// duplex links, capacities drawn from a palette (exact ties are common,
/// which stresses the bulk-fixing round logic) or uniformly at random.
inline RandomNet make_random_net(Rng& rng, int min_nodes = 4, int max_nodes = 24) {
  RandomNet net;
  const int nodes =
      static_cast<int>(rng.uniform_int(min_nodes, max_nodes));
  std::vector<NodeId> ids;
  ids.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    std::string name = "n";
    name += std::to_string(i);
    ids.push_back(net.topo.add_node(topo::NodeKind::kTor, std::move(name)));
  }
  static constexpr double kPaletteGbps[] = {10, 25, 40, 100, 200, 400};
  const auto random_capacity = [&rng]() {
    if (rng.bernoulli(0.6)) {
      return Bandwidth::gbps(kPaletteGbps[rng.uniform_index(6)]);
    }
    return Bandwidth::gbps(rng.uniform_real(5.0, 500.0));
  };
  const auto wire = [&](NodeId a, NodeId b) {
    const topo::DuplexLink d = net.topo.add_duplex_link(
        a, b, topo::LinkKind::kFabric, random_capacity(), Duration::micros(1));
    net.links.push_back(d.forward);
    net.links.push_back(d.backward);
  };
  for (int i = 1; i < nodes; ++i) {
    wire(ids[static_cast<std::size_t>(i - 1)], ids[static_cast<std::size_t>(i)]);
  }
  const int extra = static_cast<int>(rng.uniform_int(0, 2 * nodes));
  for (int e = 0; e < extra; ++e) {
    const auto a = rng.uniform_index(static_cast<std::uint64_t>(nodes));
    auto b = rng.uniform_index(static_cast<std::uint64_t>(nodes));
    if (a == b) b = (b + 1) % static_cast<std::uint64_t>(nodes);
    wire(ids[a], ids[b]);
  }
  return net;
}

/// A contiguous random walk of 1..max_hops links (may revisit links —
/// multigraph paths exercise the duplicate-link accounting).
inline std::vector<LinkId> random_walk_path(const topo::Topology& t, Rng& rng,
                                            int max_hops = 6) {
  std::vector<LinkId> path;
  NodeId at{static_cast<NodeId::underlying>(rng.uniform_index(t.node_count()))};
  const int hops = static_cast<int>(rng.uniform_int(1, max_hops));
  for (int h = 0; h < hops; ++h) {
    const auto out = t.out_links(at);
    if (out.empty()) break;
    const LinkId l = out[rng.uniform_index(out.size())];
    path.push_back(l);
    at = t.link(l).dst;
  }
  return path;
}

inline FlowDemand random_flow(const RandomNet& net, Rng& rng) {
  FlowDemand f;
  if (rng.bernoulli(0.05)) {
    // Host-local: empty path, rated at its cap.
    f.cap_bps = rng.bernoulli(0.5) ? 200e9 : rng.uniform_real(1e9, 400e9);
    return f;
  }
  f.path = random_walk_path(net.topo, rng);
  if (rng.bernoulli(0.35)) {
    f.cap_bps = std::numeric_limits<double>::infinity();
  } else if (rng.bernoulli(0.4)) {
    f.cap_bps = 200e9;  // common NIC-port cap: exact ties across flows
  } else {
    f.cap_bps = rng.uniform_real(1e9, 450e9);
  }
  return f;
}

inline std::vector<FlowDemand> random_flows(const RandomNet& net, Rng& rng, int count) {
  std::vector<FlowDemand> flows;
  flows.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) flows.push_back(random_flow(net, rng));
  return flows;
}

/// Collective-shaped load: 24 random walks, each with a cap drawn from
/// {inf, 200G, 400G} and carrying 1..8 identical flows (channels x chunks in
/// the real ccl layer). `add(path, cap)` registers one flow.
template <class AddFn>
void add_collective_load(const topo::Topology& t, Rng& rng, AddFn add) {
  static constexpr double kCaps[] = {std::numeric_limits<double>::infinity(), 200e9, 400e9};
  for (int klass = 0; klass < 24; ++klass) {
    const std::vector<LinkId> path = random_walk_path(t, rng);
    if (path.empty()) continue;
    const double cap = kCaps[rng.uniform_index(3)];
    const int members = static_cast<int>(rng.uniform_int(1, 8));
    for (int k = 0; k < members; ++k) add(path, cap);
  }
}

/// Flip `count` links drawn uniformly from the whole topology down.
inline void fail_any_links(topo::Topology& t, Rng& rng, int count) {
  for (int i = 0; i < count; ++i) {
    const LinkId l{static_cast<LinkId::underlying>(rng.uniform_index(t.link_count()))};
    t.set_link_up(l, false);
  }
}

/// Flip a few random links down (and return them) to create stalled flows.
inline std::vector<LinkId> fail_random_links(RandomNet& net, Rng& rng, int count) {
  std::vector<LinkId> failed;
  for (int i = 0; i < count; ++i) {
    const LinkId l = net.links[rng.uniform_index(net.links.size())];
    net.topo.set_link_up(l, false);
    failed.push_back(l);
  }
  return failed;
}

/// Rate-for-rate agreement within a relative tolerance (absolute floor of
/// `abs_floor` bps so zero-rate flows compare exactly).
inline void expect_rates_near(const std::vector<double>& got,
                              const std::vector<double>& want, double rel_tol,
                              double abs_floor = 1e-3) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double tol = std::max(abs_floor, rel_tol * std::abs(want[i]));
    EXPECT_NEAR(got[i], want[i], tol) << "flow " << i << " disagrees";
  }
}

inline std::vector<double> rates_of(const std::vector<FlowDemand>& flows) {
  std::vector<double> r;
  r.reserve(flows.size());
  for (const FlowDemand& f : flows) r.push_back(f.rate_bps);
  return r;
}

}  // namespace hpn::flowsim::testsupport
