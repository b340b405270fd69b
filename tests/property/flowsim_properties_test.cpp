// Property tests for the bandwidth-sharing engines: randomized flow sets
// must always satisfy capacity feasibility, work conservation, and the
// max-min bottleneck condition.
#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.h"
#include "flowsim/fluid.h"
#include "flowsim/maxmin.h"
#include "flowsim/session.h"
#include "routing/router.h"
#include "tests/support/reference_maxmin.h"
#include "topo/builders.h"

namespace hpn::flowsim {
namespace {

using topo::Cluster;
using topo::HpnConfig;

std::vector<FlowDemand> random_flows(const Cluster& c, routing::Router& r, Rng& rng,
                                     int count) {
  std::vector<FlowDemand> flows;
  const int gpus = c.gpu_count();
  while (static_cast<int>(flows.size()) < count) {
    const int a = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(gpus)));
    const int b = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(gpus)));
    if (a == b || c.nic_of(a).nic == c.nic_of(b).nic) continue;
    const routing::Path p = r.trace(
        c.nic_of(a).nic, c.nic_of(b).nic,
        routing::FiveTuple{.src_ip = static_cast<std::uint32_t>(a),
                           .dst_ip = static_cast<std::uint32_t>(b),
                           .src_port = static_cast<std::uint16_t>(rng.next_u64())});
    if (!p.valid()) continue;
    FlowDemand d;
    d.path = p.links;
    d.cap_bps = rng.bernoulli(0.5) ? 200e9 : rng.uniform_real(10e9, 400e9);
    flows.push_back(std::move(d));
  }
  return flows;
}

class MaxMinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMinProperty, FeasibleConservingAndMaxMin) {
  const Cluster c = topo::build_hpn(HpnConfig::tiny());
  routing::Router r{c.topo};
  Rng rng{GetParam()};
  auto flows = random_flows(c, r, rng, 96);
  cold_solve(c.topo, flows);

  // Feasibility: no link carries more than its capacity.
  std::unordered_map<LinkId, double> load;
  for (const auto& f : flows) {
    EXPECT_GT(f.rate_bps, 0.0);
    EXPECT_LE(f.rate_bps, f.cap_bps * (1.0 + 1e-9));
    for (const LinkId l : f.path) load[l] += f.rate_bps;
  }
  for (const auto& [lid, sum] : load) {
    EXPECT_LE(sum, c.topo.link(lid).capacity.as_bits_per_sec() * (1.0 + 1e-6))
        << "link over capacity";
  }

  // Work conservation / bottleneck condition: every flow is either at its
  // cap or crosses a link that is (a) saturated and (b) on which this flow
  // has a maximal share (no smaller flow could donate to it).
  for (const auto& f : flows) {
    if (f.rate_bps >= f.cap_bps * (1.0 - 1e-6)) continue;
    bool bottlenecked = false;
    for (const LinkId l : f.path) {
      const double cap = c.topo.link(l).capacity.as_bits_per_sec();
      if (load[l] < cap * (1.0 - 1e-6)) continue;  // not saturated
      // Is f among the largest flows on this saturated link?
      double max_rate = 0.0;
      for (const auto& g : flows) {
        for (const LinkId gl : g.path) {
          if (gl == l) max_rate = std::max(max_rate, g.rate_bps);
        }
      }
      if (f.rate_bps >= max_rate * (1.0 - 1e-6)) {
        bottlenecked = true;
        break;
      }
    }
    EXPECT_TRUE(bottlenecked) << "flow below cap with no justifying bottleneck";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

class SessionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionProperty, AllFlowsCompleteAndConserveBytes) {
  const Cluster c = topo::build_hpn(HpnConfig::tiny());
  sim::Simulator s;
  FlowSession fs{c.topo, s};
  routing::Router r{c.topo};
  Rng rng{GetParam()};

  double total_bits = 0.0;
  int completed = 0;
  const int n = 48;
  for (int i = 0; i < n; ++i) {
    const int a = static_cast<int>(rng.uniform_index(64));
    int b = static_cast<int>(rng.uniform_index(64));
    if (a == b) b = (b + 8) % 64;
    const routing::Path p =
        r.trace(c.nic_of(a).nic, c.nic_of(b).nic,
                routing::FiveTuple{.src_ip = static_cast<std::uint32_t>(a),
                                   .dst_ip = static_cast<std::uint32_t>(b),
                                   .src_port = static_cast<std::uint16_t>(i)});
    ASSERT_TRUE(p.valid());
    const auto size = DataSize::megabytes(rng.uniform_int(1, 64));
    total_bits += static_cast<double>(size.as_bits());
    // Stagger the starts.
    s.schedule_after(Duration::micros(rng.uniform_int(0, 500)), [&fs, p, size, &completed] {
      fs.start_flow(p.links, size, Bandwidth::gbps(200), [&completed](FlowId) { ++completed; });
    });
  }
  s.run();
  EXPECT_EQ(completed, n);
  EXPECT_EQ(fs.active_flows(), 0u);
  EXPECT_NEAR(static_cast<double>(fs.delivered_total().as_bits()), total_bits,
              total_bits * 1e-6 + n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionProperty, ::testing::Values(7u, 11u, 19u, 42u));

class FluidProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FluidProperty, DeliveryNeverExceedsCapacityAndQueuesStayFinite) {
  const Cluster c = topo::build_hpn(HpnConfig::tiny());
  sim::Simulator s;
  FluidSimulator fl{c.topo, s};
  routing::Router r{c.topo};
  Rng rng{GetParam()};

  std::vector<LinkId> touched;
  for (int i = 0; i < 24; ++i) {
    const int a = static_cast<int>(rng.uniform_index(64));
    int b = static_cast<int>(rng.uniform_index(64));
    if (a == b) b = (b + 8) % 64;
    const routing::Path p =
        r.trace(c.nic_of(a).nic, c.nic_of(b).nic,
                routing::FiveTuple{.src_ip = static_cast<std::uint32_t>(a),
                                   .dst_ip = static_cast<std::uint32_t>(b),
                                   .src_port = static_cast<std::uint16_t>(i * 31)});
    ASSERT_TRUE(p.valid());
    fl.start_flow(p.links, Bandwidth::gbps(200));
    for (const LinkId l : p.links) touched.push_back(l);
  }
  s.run_for(Duration::millis(300));
  for (const LinkId l : touched) {
    EXPECT_LE(fl.delivered_rate(l).as_bits_per_sec(),
              c.topo.link(l).capacity.as_bits_per_sec() * (1.0 + 1e-9));
    EXPECT_GE(fl.queue_of(l).as_bits(), 0);
    // ECN keeps queues bounded near kmax.
    EXPECT_LT(fl.queue_of(l).as_megabytes(), 4.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidProperty, ::testing::Values(3u, 9u, 27u));

}  // namespace
}  // namespace hpn::flowsim
