// Rail-only (Wang et al.): the Agg/Core tiers are removed entirely. Each
// rail gets its own ToR (pair, under dual-ToR) spanning *every* host, so
// DP-heavy LLM traffic — which is rail-local by construction — never needs
// an aggregation layer. Cross-rail NIC pairs are unreachable over the
// backend network; that is the architecture's bet, not a wiring bug.
#include <string>

#include "common/check.h"
#include "topo/builders.h"
#include "topo/host_wiring.h"

namespace hpn::topo {

Cluster build_rail_only(const RailOnlyConfig& cfg) {
  HPN_CHECK_MSG(cfg.hosts >= 1, "rail-only config: need at least one host");
  HPN_CHECK_MSG(cfg.gpus_per_host >= 1, "rail-only config: need at least one rail");

  Cluster c;
  c.arch = Arch::kRailOnly;
  c.gpus_per_host = cfg.gpus_per_host;
  c.pods = 1;
  c.segments_per_pod = 1;

  const int planes = cfg.dual_tor ? 2 : 1;
  const int rails = cfg.gpus_per_host;

  // One ToR per (rail, plane), spanning the whole cluster; c.tors holds
  // them rail-major, plane fastest.
  for (int rail = 0; rail < rails; ++rail) {
    for (int pl = 0; pl < planes; ++pl) {
      Location loc;
      loc.pod = 0;
      loc.segment = 0;
      loc.plane = static_cast<std::int16_t>(pl);
      loc.rail = static_cast<std::int16_t>(rail);
      loc.local = rail * planes + pl;
      c.tors.push_back(c.topo.add_node(
          NodeKind::kTor, "tor.r" + std::to_string(rail) + "p" + std::to_string(pl), loc));
    }
  }

  for (int h = 0; h < cfg.hosts; ++h) add_host(c, 0, 0, {c.tors, planes, planes});

  c.rebuild_gpu_index();
  return c;
}

}  // namespace hpn::topo
