// Randomized failure injection driven by the production failure statistics
// of Fig 5 (0.057% of NIC-ToR links fail per month, 0.051% of ToRs crash,
// 5K-60K link flaps fleet-wide per day). Draws a plan of fail/repair events
// over a simulated horizon; the soak bench adjudicates each event against
// the collective timeout.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "topo/cluster.h"
#include "workload/traffic.h"

namespace hpn::fault {

struct InjectionPlanEntry {
  enum class Kind { kLinkFail, kLinkFlap, kTorCrash } kind;
  TimePoint at;
  int host = -1;
  int rail = -1;
  int port = -1;
  NodeId tor = NodeId::invalid();
  Duration repair_after = Duration::zero();  ///< 0 = never repaired.
};

class FailureInjector {
 public:
  FailureInjector(const topo::Cluster& cluster, std::uint64_t seed,
                  workload::FailureRates rates = {});

  /// Draw a random plan over `horizon`: each access link independently
  /// fails with the monthly rate scaled to the horizon; flaps follow the
  /// fleet-wide daily rate scaled to this cluster's share of links.
  std::vector<InjectionPlanEntry> draw_plan(Duration horizon, Duration repair_after);

 private:
  const topo::Cluster* cluster_;
  Rng rng_;
  workload::FailureRates rates_;
};

}  // namespace hpn::fault
