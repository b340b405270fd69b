// RailX-lite: a reconfigurable-rail fabric. Hosts are split into groups;
// each (group, rail) pair owns a single-plane ToR. Same-rail ToRs across
// groups are joined by an optical-circuit tier that a rotor schedule
// rewires: epoch e keeps exactly one "difference class" of group pairs up
// (class d joins group g with group (g+d) mod G). Every circuit link exists
// permanently in the graph — reconfiguration is modeled as up/down flips —
// so the chip-budget check and cost proxy see the full port count, the way
// a real OCS patch panel would.
//
// The builder leaves epoch 0 (difference 1: the ring) up. With an odd group
// count every difference class is a single Hamiltonian cycle, so any epoch
// keeps each rail connected.
#include <algorithm>
#include <string>

#include "common/check.h"
#include "topo/builders.h"
#include "topo/host_wiring.h"

namespace hpn::topo {

Cluster build_railx(const RailXConfig& cfg) {
  HPN_CHECK_MSG(cfg.groups >= 2, "railx config: need at least two groups");
  HPN_CHECK_MSG(cfg.hosts_per_group >= 1, "railx config: need hosts in each group");
  HPN_CHECK_MSG(cfg.gpus_per_host >= 1, "railx config: need at least one rail");

  Cluster c;
  c.arch = Arch::kRailXLite;
  c.gpus_per_host = cfg.gpus_per_host;
  c.pods = 1;
  c.segments_per_pod = cfg.groups;

  const int rails = cfg.gpus_per_host;
  const int groups = cfg.groups;

  // c.tors is the ToR grid: [group][rail], rail fastest.
  const auto tor_of = [&c, rails](int g, int rail) {
    return c.tors[static_cast<std::size_t>(g * rails + rail)];
  };
  for (int g = 0; g < groups; ++g) {
    for (int rail = 0; rail < rails; ++rail) {
      Location loc;
      loc.pod = 0;
      loc.segment = static_cast<std::int16_t>(g);
      loc.rail = static_cast<std::int16_t>(rail);
      loc.local = g * rails + rail;
      c.tors.push_back(c.topo.add_node(
          NodeKind::kTor, "tor.g" + std::to_string(g) + ".r" + std::to_string(rail), loc));
    }
  }

  for (int g = 0; g < groups; ++g) {
    const HostAccess access{std::span<const NodeId>{c.tors}.subspan(
                                static_cast<std::size_t>(g * rails),
                                static_cast<std::size_t>(rails)),
                            1, 1};
    for (int h = 0; h < cfg.hosts_per_group; ++h) add_host(c, 0, g, access);
  }

  // ---- Circuit tier --------------------------------------------------------
  // One circuit per unordered group pair and rail. Difference class d
  // (1 <= d <= G/2) holds the pairs {g, (g+d) mod G}; the rotor schedule
  // has G-1 epochs, epoch e activating class min(e+1, G-(e+1)).
  const int max_class = groups / 2;
  // class (1-based) -> circuit forward links of that class, all rails.
  std::vector<std::vector<LinkId>> class_links(static_cast<std::size_t>(max_class + 1));
  for (int d = 1; d <= max_class; ++d) {
    const int pair_count = (2 * d == groups) ? groups / 2 : groups;
    for (int g = 0; g < pair_count; ++g) {
      const int peer = (g + d) % groups;
      for (int rail = 0; rail < rails; ++rail) {
        const LinkId l = c.topo
                             .add_duplex_link(tor_of(g, rail), tor_of(peer, rail),
                                              LinkKind::kFabric, kLinkSpeeds.fabric,
                                              kLinkSpeeds.fabric_latency)
                             .forward;
        class_links[static_cast<std::size_t>(d)].push_back(l);
      }
    }
  }

  c.circuits.epoch_links.resize(static_cast<std::size_t>(groups - 1));
  for (int e = 0; e < groups - 1; ++e) {
    const int d = std::min(e + 1, groups - (e + 1));
    c.circuits.epoch_links[static_cast<std::size_t>(e)] =
        class_links[static_cast<std::size_t>(d)];
  }

  // Leave epoch 0 up, everything else dark.
  for (int d = 2; d <= max_class; ++d) {
    for (const LinkId l : class_links[static_cast<std::size_t>(d)]) {
      c.topo.set_duplex_up(l, false);
    }
  }

  c.rebuild_gpu_index();
  return c;
}

}  // namespace hpn::topo
