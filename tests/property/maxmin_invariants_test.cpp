// Property tests for the max-min allocation itself (solver-agnostic
// invariants, checked on the rewritten dense engine):
//   * feasibility — no link carries more than its capacity;
//   * saturation — every unstalled flow is at its cap or crosses a
//     saturated link (work conservation);
//   * order independence — shuffling the flow order yields identical rates;
//   * stalling — flows whose path crosses a down link get exactly 0.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/rng.h"
#include "flowsim/maxmin.h"
#include "tests/support/random_scenarios.h"

namespace hpn::flowsim {
namespace {

namespace ts = testsupport;

class MaxMinInvariants : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng_{GetParam()};
  ts::RandomNet net_ = ts::make_random_net(rng_);
};

std::unordered_map<LinkId, double> link_loads(const std::vector<FlowDemand>& flows) {
  std::unordered_map<LinkId, double> load;
  for (const FlowDemand& f : flows) {
    for (const LinkId l : f.path) load[l] += f.rate_bps;
  }
  return load;
}

TEST_P(MaxMinInvariants, NoLinkExceedsCapacity) {
  std::vector<FlowDemand> flows = ts::random_flows(net_, rng_, 80);
  cold_solve(net_.topo, flows);
  for (const auto& [lid, sum] : link_loads(flows)) {
    EXPECT_LE(sum, net_.topo.link(lid).capacity.as_bits_per_sec() * (1.0 + 1e-6))
        << "link " << lid << " over capacity";
  }
  for (const FlowDemand& f : flows) {
    EXPECT_LE(f.rate_bps, f.cap_bps * (1.0 + 1e-9)) << "flow over its cap";
    EXPECT_GE(f.rate_bps, 0.0);
  }
}

TEST_P(MaxMinInvariants, UnstalledFlowsAreCapOrBottleneckSaturated) {
  std::vector<FlowDemand> flows = ts::random_flows(net_, rng_, 80);
  cold_solve(net_.topo, flows);
  const auto load = link_loads(flows);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowDemand& f = flows[i];
    if (f.path.empty()) {
      EXPECT_EQ(f.rate_bps, std::isfinite(f.cap_bps) ? f.cap_bps : 0.0);
      continue;
    }
    if (f.rate_bps >= f.cap_bps * (1.0 - 1e-6)) continue;  // saturated at cap
    bool saturated_link = false;
    for (const LinkId l : f.path) {
      const double cap = net_.topo.link(l).capacity.as_bits_per_sec();
      if (load.at(l) >= cap * (1.0 - 1e-6)) {
        saturated_link = true;
        break;
      }
    }
    EXPECT_TRUE(saturated_link)
        << "flow " << i << " below cap (" << f.rate_bps << " < " << f.cap_bps
        << ") but crosses no saturated link";
  }
}

TEST_P(MaxMinInvariants, AllocationIsOrderIndependent) {
  std::vector<FlowDemand> flows = ts::random_flows(net_, rng_, 60);
  std::vector<FlowDemand> baseline = flows;
  cold_solve(net_.topo, baseline);

  // Shuffle, solve, map back to original identity.
  std::vector<std::size_t> perm(flows.size());
  std::iota(perm.begin(), perm.end(), 0u);
  rng_.shuffle(perm);
  std::vector<FlowDemand> shuffled;
  shuffled.reserve(flows.size());
  for (const std::size_t p : perm) shuffled.push_back(flows[p]);
  cold_solve(net_.topo, shuffled);

  std::vector<double> got(flows.size(), 0.0);
  for (std::size_t k = 0; k < perm.size(); ++k) got[perm[k]] = shuffled[k].rate_bps;
  ts::expect_rates_near(got, ts::rates_of(baseline), 1e-9);
}

TEST_P(MaxMinInvariants, DownLinkFlowsGetExactlyZero) {
  std::vector<FlowDemand> flows = ts::random_flows(net_, rng_, 80);
  const std::vector<LinkId> failed =
      ts::fail_random_links(net_, rng_, static_cast<int>(rng_.uniform_int(1, 5)));
  cold_solve(net_.topo, flows);
  for (const FlowDemand& f : flows) {
    bool crosses_down = false;
    for (const LinkId l : f.path) crosses_down |= !net_.topo.is_up(l);
    if (crosses_down) {
      EXPECT_EQ(f.rate_bps, 0.0) << "stalled flow must get exactly 0";
    } else if (!f.path.empty()) {
      // Survivors share the remaining fabric; a live flow with positive
      // cap on up links always gets a positive rate.
      EXPECT_GT(f.rate_bps, 0.0);
    }
  }
}

TEST_P(MaxMinInvariants, IncrementalEngineSatisfiesTheSameInvariants) {
  std::vector<FlowDemand> flows = ts::random_flows(net_, rng_, 50);
  IncrementalMaxMin inc{net_.topo};
  std::vector<IncrementalMaxMin::Handle> handles;
  for (const FlowDemand& f : flows) handles.push_back(inc.add_flow(f.path, f.cap_bps));
  inc.resolve();
  for (std::size_t i = 0; i < flows.size(); ++i) flows[i].rate_bps = inc.rate(handles[i]);

  for (const auto& [lid, sum] : link_loads(flows)) {
    EXPECT_LE(sum, net_.topo.link(lid).capacity.as_bits_per_sec() * (1.0 + 1e-6));
    EXPECT_NEAR(inc.throughput_on(lid), sum, std::max(1.0, sum * 1e-9));
  }
  for (const FlowDemand& f : flows) {
    EXPECT_LE(f.rate_bps, f.cap_bps * (1.0 + 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinInvariants,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u,
                                           144u, 233u, 377u, 610u, 987u, 1597u));

}  // namespace
}  // namespace hpn::flowsim
