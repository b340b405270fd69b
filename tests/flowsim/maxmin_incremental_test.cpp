// Incremental-consistency harness: after ANY sequence of link up/down
// flips, flow add/removes, reroutes and cap changes, an incremental
// resolve() must produce exactly the allocation a cold solve computes on
// the same state. Driven by a seeded fuzz loop over random multigraphs.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "fabric/fabric.h"
#include "flowsim/maxmin.h"
#include "tests/support/random_scenarios.h"
#include "tests/support/reference_maxmin.h"

namespace hpn::flowsim {
namespace {

namespace ts = testsupport;

constexpr double kRelTol = 1e-6;

struct ShadowFlow {
  IncrementalMaxMin::Handle handle;
  std::vector<LinkId> path;
  double cap_bps;
};

/// Cold-solves the shadow flow set and checks the incremental rates match.
void check_against_cold(const ts::RandomNet& net, IncrementalMaxMin& inc,
                        const std::vector<ShadowFlow>& shadow, bool also_reference) {
  std::vector<FlowDemand> cold;
  cold.reserve(shadow.size());
  for (const ShadowFlow& s : shadow) cold.push_back({.path = s.path, .cap_bps = s.cap_bps});
  cold_solve(net.topo, cold);

  std::vector<double> got;
  got.reserve(shadow.size());
  for (const ShadowFlow& s : shadow) got.push_back(inc.rate(s.handle));
  ts::expect_rates_near(got, ts::rates_of(cold), kRelTol);

  if (also_reference) {
    std::vector<FlowDemand> ref = cold;
    ReferenceMaxMinSolver{net.topo}.solve(ref);
    ts::expect_rates_near(got, ts::rates_of(ref), kRelTol);
  }
}

void fuzz_trial(std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Rng rng{seed};
  ts::RandomNet net = ts::make_random_net(rng, 6, 20);
  IncrementalMaxMin inc{net.topo};
  std::vector<ShadowFlow> shadow;

  const auto add_one = [&] {
    FlowDemand f = ts::random_flow(net, rng);
    const auto h = inc.add_flow(f.path, f.cap_bps);
    shadow.push_back(ShadowFlow{h, std::move(f.path), f.cap_bps});
  };
  for (int i = 0; i < 8; ++i) add_one();

  const int ops = static_cast<int>(rng.uniform_int(40, 90));
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE("op=" + std::to_string(op));
    const double dice = rng.uniform_real();
    if (dice < 0.35) {
      add_one();
    } else if (dice < 0.5 && !shadow.empty()) {
      const std::size_t i = rng.uniform_index(shadow.size());
      inc.remove_flow(shadow[i].handle);
      shadow[i] = shadow.back();
      shadow.pop_back();
    } else if (dice < 0.65 && !shadow.empty()) {
      // Reroute onto a fresh random walk.
      const std::size_t i = rng.uniform_index(shadow.size());
      std::vector<LinkId> path = ts::random_walk_path(net.topo, rng);
      inc.set_path(shadow[i].handle, path);
      shadow[i].path = std::move(path);
    } else if (dice < 0.75 && !shadow.empty()) {
      // A new cap: the flow leaves and comes back on the same path.
      const std::size_t i = rng.uniform_index(shadow.size());
      const double cap = rng.bernoulli(0.3) ? std::numeric_limits<double>::infinity()
                                            : rng.uniform_real(1e9, 450e9);
      inc.remove_flow(shadow[i].handle);
      shadow[i].handle = inc.add_flow(shadow[i].path, cap);
      shadow[i].cap_bps = cap;
    } else {
      // Flip a random link; announce it either precisely or as an
      // anonymous "something changed" (the resolve-time diff must find it).
      const LinkId l = net.links[rng.uniform_index(net.links.size())];
      net.topo.set_link_up(l, !net.topo.is_up(l));
      if (rng.bernoulli(0.5)) {
        inc.notify_link_changed(l);
      } else {
        inc.notify_topology_changed();
      }
    }
    if (op % 3 == 0 || op == ops - 1) {
      inc.resolve();
      check_against_cold(net, inc, shadow, /*also_reference=*/op == ops - 1);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(inc.flow_count(), shadow.size());
}

TEST(IncrementalMaxMin, MatchesColdSolveUnderFuzzedMutation) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    fuzz_trial(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IncrementalMaxMin, QuiescentResolveIsFreeAndStable) {
  Rng rng{99};
  ts::RandomNet net = ts::make_random_net(rng, 8, 12);
  IncrementalMaxMin inc{net.topo};
  std::vector<ShadowFlow> shadow;
  for (int i = 0; i < 24; ++i) {
    FlowDemand f = ts::random_flow(net, rng);
    const auto h = inc.add_flow(f.path, f.cap_bps);
    shadow.push_back(ShadowFlow{h, std::move(f.path), f.cap_bps});
  }
  EXPECT_GT(inc.resolve(), 0u);
  std::vector<double> before;
  for (const ShadowFlow& s : shadow) before.push_back(inc.rate(s.handle));
  // Nothing changed: resolve must touch zero flows and keep rates.
  EXPECT_EQ(inc.resolve(), 0u);
  // An announced-but-unflipped topology change is also a no-op.
  inc.notify_topology_changed();
  EXPECT_EQ(inc.resolve(), 0u);
  std::vector<double> after;
  for (const ShadowFlow& s : shadow) after.push_back(inc.rate(s.handle));
  EXPECT_EQ(before, after);
}

TEST(IncrementalMaxMin, SingleFlipTouchesOnlyItsComponent) {
  // Two disjoint line networks inside one topology: flipping a link in one
  // must not re-rate flows in the other.
  topo::Topology t;
  const NodeId a0 = t.add_node(topo::NodeKind::kTor, "a0");
  const NodeId a1 = t.add_node(topo::NodeKind::kTor, "a1");
  const NodeId b0 = t.add_node(topo::NodeKind::kTor, "b0");
  const NodeId b1 = t.add_node(topo::NodeKind::kTor, "b1");
  const LinkId la = t.add_duplex_link(a0, a1, topo::LinkKind::kFabric,
                                      Bandwidth::gbps(100), Duration::micros(1))
                        .forward;
  const LinkId lb = t.add_duplex_link(b0, b1, topo::LinkKind::kFabric,
                                      Bandwidth::gbps(100), Duration::micros(1))
                        .forward;
  IncrementalMaxMin inc{t};
  const auto fa1 = inc.add_flow({la}, 200e9);
  const auto fa2 = inc.add_flow({la}, 200e9);
  const auto fb = inc.add_flow({lb}, 200e9);
  EXPECT_EQ(inc.resolve(), 3u);
  EXPECT_NEAR(inc.rate(fa1), 50e9, 1);
  EXPECT_NEAR(inc.rate(fb), 100e9, 1);

  t.set_link_up(la, false);
  inc.notify_link_changed(la);
  // Only the two flows on the A component are re-rated.
  EXPECT_EQ(inc.resolve(), 2u);
  EXPECT_EQ(inc.rate(fa1), 0.0);
  EXPECT_EQ(inc.rate(fa2), 0.0);
  EXPECT_NEAR(inc.rate(fb), 100e9, 1);

  t.set_link_up(la, true);
  inc.notify_topology_changed();
  EXPECT_EQ(inc.resolve(), 2u);
  EXPECT_NEAR(inc.rate(fa1), 50e9, 1);
  EXPECT_EQ(inc.stats().link_flips, 1u);  // only the anonymous flip is counted
}

// History independence: a rate depends only on the flow set and the link
// states, never on which components a resolve() found dirty together. Each
// case loads a registry fabric, resolves, fails two links, removes every
// 5th flow and resolves again; a fresh engine given the surviving flows
// must then produce the same rates bit for bit.
TEST(IncrementalMaxMin, ReSolveEqualsColdSolveOnRegistryFabrics) {
  fabric::FabricScale scale;
  scale.hosts_per_segment = 2;
  scale.gpus_per_host = 4;
  std::size_t compared = 0;
  std::size_t mismatches = 0;
  for (const fabric::Fabric* f : fabric::all_fabrics()) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(std::string{f->name()} + " seed=" + std::to_string(seed));
      topo::Cluster cluster = f->build(scale);
      Rng rng{seed * 7919};
      IncrementalMaxMin warm{cluster.topo};
      std::vector<ShadowFlow> shadow;
      ts::add_collective_load(cluster.topo, rng,
                              [&](const std::vector<LinkId>& path, double cap) {
                                shadow.push_back({warm.add_flow(path, cap), path, cap});
                              });
      warm.resolve();
      ts::fail_any_links(cluster.topo, rng, 2);
      warm.notify_topology_changed();
      std::vector<ShadowFlow> kept;
      for (std::size_t i = 0; i < shadow.size(); ++i) {
        if (i % 5 == 0) {
          warm.remove_flow(shadow[i].handle);
        } else {
          kept.push_back(shadow[i]);
        }
      }
      warm.resolve();

      IncrementalMaxMin cold{cluster.topo};
      std::vector<IncrementalMaxMin::Handle> cold_handles;
      for (const ShadowFlow& s : kept) cold_handles.push_back(cold.add_flow(s.path, s.cap_bps));
      cold.resolve();
      for (std::size_t i = 0; i < kept.size(); ++i) {
        ++compared;
        const double w = warm.rate(kept[i].handle);
        const double c = cold.rate(cold_handles[i]);
        if (std::bit_cast<std::uint64_t>(w) != std::bit_cast<std::uint64_t>(c)) {
          ++mismatches;
          ADD_FAILURE() << "flow " << i << ": re-solve " << w << " != cold solve " << c;
        }
      }
    }
  }
  std::printf("[history] re-solve vs cold solve: %zu mismatches over %zu rates\n", mismatches,
              compared);
  EXPECT_GT(compared, 0u);
}

// A one-flow component is rated in closed form; it must equal a
// single-item WaterFiller run bit for bit. Each trial gives every flow its
// own links (so each is its own component), with duplicate-link paths,
// down links, finite, infinite and zero caps, and capacities down to the
// smallest positive double (the topology refuses a zero-capacity link).
TEST(IncrementalMaxMin, ClosedFormEqualsSingleItemWaterFiller) {
  constexpr int kFlows = 8;
  constexpr int kLinksPerFlow = 4;
  std::size_t rated = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng{seed};
    topo::Topology t;
    std::vector<std::vector<LinkId>> own(kFlows);
    for (int f = 0; f < kFlows; ++f) {
      const NodeId a = t.add_node(topo::NodeKind::kTor, "a");
      const NodeId b = t.add_node(topo::NodeKind::kTor, "b");
      for (int k = 0; k < kLinksPerFlow; ++k) {
        const double dice = rng.uniform_real();
        const Bandwidth cap = dice < 0.05   ? Bandwidth::bits_per_sec(
                                                  std::numeric_limits<double>::denorm_min())
                              : dice < 0.5  ? Bandwidth::gbps(100)
                                            : Bandwidth::gbps(rng.uniform_real(1.0, 800.0));
        const LinkId l =
            t.add_duplex_link(a, b, topo::LinkKind::kFabric, cap, Duration::micros(1)).forward;
        if (rng.bernoulli(0.1)) t.set_link_up(l, false);
        own[static_cast<std::size_t>(f)].push_back(l);
      }
    }
    IncrementalMaxMin inc{t};
    std::vector<IncrementalMaxMin::Handle> handles;
    std::vector<std::vector<LinkId>> paths;
    std::vector<double> caps;
    for (int f = 0; f < kFlows; ++f) {
      const auto& links = own[static_cast<std::size_t>(f)];
      std::vector<LinkId> path;
      const int hops = static_cast<int>(rng.uniform_int(1, 6));
      for (int h = 0; h < hops; ++h) path.push_back(links[rng.uniform_index(links.size())]);
      const double dice = rng.uniform_real();
      const double cap = dice < 0.3    ? std::numeric_limits<double>::infinity()
                         : dice < 0.35 ? 0.0
                         : dice < 0.6  ? 100e9
                                       : rng.uniform_real(1e9, 900e9);
      handles.push_back(inc.add_flow(path, cap));
      paths.push_back(std::move(path));
      caps.push_back(cap);
    }
    ASSERT_EQ(inc.resolve(), static_cast<std::size_t>(kFlows));
    EXPECT_EQ(inc.stats().components, static_cast<std::uint64_t>(kFlows));
    EXPECT_EQ(inc.stats().closed_form, static_cast<std::uint64_t>(kFlows));
    for (int f = 0; f < kFlows; ++f) {
      const auto i = static_cast<std::size_t>(f);
      detail::WaterFiller filler;
      filler.begin(1);
      filler.add_item(paths[i].data(), paths[i].size(), caps[i]);
      filler.run(t);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(inc.rate(handles[i])),
                std::bit_cast<std::uint64_t>(filler.rate(0)))
          << "flow " << f << ": closed form " << inc.rate(handles[i]) << ", filler "
          << filler.rate(0);
      ++rated;
    }
  }
  EXPECT_EQ(rated, 200u * kFlows);
}

}  // namespace
}  // namespace hpn::flowsim
