#include "fault/failure_injector.h"

#include <algorithm>

#include "common/check.h"

namespace hpn::fault {

FailureInjector::FailureInjector(const topo::Cluster& cluster, std::uint64_t seed,
                                 workload::FailureRates rates)
    : cluster_{&cluster}, rng_{seed}, rates_{rates} {}

std::vector<InjectionPlanEntry> FailureInjector::draw_plan(Duration horizon,
                                                           Duration repair_after) {
  HPN_CHECK(horizon > Duration::zero());
  const double months = horizon.as_seconds() / (30.0 * 24.0 * 3600.0);
  const double link_p = std::min(1.0, rates_.nic_tor_link_monthly * months);
  const double tor_p = std::min(1.0, rates_.tor_critical_monthly * months);

  std::vector<InjectionPlanEntry> plan;
  auto random_time = [&] {
    return TimePoint::origin() + horizon * rng_.uniform_real(0.02, 0.98);
  };

  for (const topo::Host& h : cluster_->hosts) {
    for (std::size_t rail = 0; rail < h.nics.size(); ++rail) {
      for (int p = 0; p < h.nics[rail].ports; ++p) {
        if (rng_.bernoulli(link_p)) {
          plan.push_back({InjectionPlanEntry::Kind::kLinkFail, random_time(), h.index,
                          static_cast<int>(rail), p, NodeId::invalid(), repair_after});
        }
      }
    }
  }
  for (const NodeId tor : cluster_->tors) {
    if (rng_.bernoulli(tor_p)) {
      plan.push_back({InjectionPlanEntry::Kind::kTorCrash, random_time(), -1, -1, -1, tor,
                      repair_after});
    }
  }

  // Link flapping: the fleet sees 5K-60K flaps/day over ~O(100K) links;
  // scale to this cluster's access-link count.
  int access_links = 0;
  for (const topo::Host& h : cluster_->hosts) {
    for (const auto& nic : h.nics) access_links += nic.ports;
  }
  const double days = horizon.as_seconds() / (24.0 * 3600.0);
  const double fleet_links = 100'000.0;
  const double flap_rate =
      rng_.uniform_real(rates_.daily_flaps_min, rates_.daily_flaps_max) / fleet_links;
  const double expected_flaps = flap_rate * access_links * days;
  const std::int64_t flaps = rng_.poisson(std::max(0.0, expected_flaps));
  for (std::int64_t i = 0; i < flaps; ++i) {
    const topo::Host& h = cluster_->hosts[rng_.uniform_index(cluster_->hosts.size())];
    const int rail = static_cast<int>(rng_.uniform_index(h.nics.size()));
    const int port = static_cast<int>(
        rng_.uniform_index(static_cast<std::uint64_t>(h.nics[static_cast<std::size_t>(rail)].ports)));
    plan.push_back({InjectionPlanEntry::Kind::kLinkFlap, random_time(), h.index, rail, port,
                    NodeId::invalid(), Duration::seconds(rng_.uniform_real(0.5, 5.0))});
  }
  return plan;
}

}  // namespace hpn::fault
