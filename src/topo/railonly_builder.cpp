// Rail-only (Wang et al.): the Agg/Core tiers are removed entirely. Each
// rail gets its own ToR (pair, under dual-ToR) spanning *every* host, so
// DP-heavy LLM traffic — which is rail-local by construction — never needs
// an aggregation layer. Cross-rail NIC pairs are unreachable over the
// backend network; that is the architecture's bet, not a wiring bug.
#include <string>

#include "common/check.h"
#include "topo/builders.h"

namespace hpn::topo {

RailOnlyConfig RailOnlyConfig::tiny() {
  RailOnlyConfig cfg;
  cfg.hosts = 4;
  return cfg;
}

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

  // One ToR per (rail, plane), spanning the whole cluster.
  std::vector<std::vector<NodeId>> rail_tors(static_cast<std::size_t>(rails));
  for (int rail = 0; rail < rails; ++rail) {
    for (int pl = 0; pl < planes; ++pl) {
      Location loc;
      loc.pod = 0;
      loc.segment = 0;
      loc.plane = static_cast<std::int16_t>(pl);
      loc.rail = static_cast<std::int16_t>(rail);
      loc.local = rail * planes + pl;
      const NodeId tor = c.topo.add_node(
          NodeKind::kTor, "tor.r" + std::to_string(rail) + "p" + std::to_string(pl), loc);
      rail_tors[static_cast<std::size_t>(rail)].push_back(tor);
      c.tors.push_back(tor);
    }
  }

  for (int h = 0; h < cfg.hosts; ++h) {
    Host host;
    host.index = static_cast<std::int32_t>(c.hosts.size());
    host.pod = 0;
    host.segment = 0;
    std::string hname = "h";
    hname += std::to_string(host.index);

    Location hloc;
    hloc.pod = host.pod;
    hloc.segment = host.segment;
    hloc.host = host.index;
    host.nvswitch = c.topo.add_node(NodeKind::kNvSwitch, hname + ".nvsw", hloc);

    for (int rail = 0; rail < rails; ++rail) {
      Location gloc = hloc;
      gloc.rail = static_cast<std::int16_t>(rail);
      const NodeId gpu =
          c.topo.add_node(NodeKind::kGpu, hname + ".g" + std::to_string(rail), gloc);
      host.gpus.push_back(gpu);
      host.gpu_nvlink.push_back(
          c.topo.add_duplex_link(gpu, host.nvswitch, LinkKind::kNvlink, cfg.speeds.nvlink,
                                 cfg.speeds.nvlink_latency)
              .forward);

      const NodeId nic =
          c.topo.add_node(NodeKind::kNic, hname + ".nic" + std::to_string(rail), gloc);
      host.gpu_pcie.push_back(
          c.topo.add_duplex_link(gpu, nic, LinkKind::kPcie, cfg.speeds.pcie,
                                 cfg.speeds.pcie_latency)
              .forward);

      NicAttachment att;
      att.nic = nic;
      att.ports = planes;
      for (int pl = 0; pl < planes; ++pl) {
        const NodeId tor =
            rail_tors[static_cast<std::size_t>(rail)][static_cast<std::size_t>(pl)];
        att.tor[static_cast<std::size_t>(pl)] = tor;
        att.access[static_cast<std::size_t>(pl)] =
            c.topo.add_duplex_link(nic, tor, LinkKind::kAccess, cfg.speeds.access,
                                   cfg.speeds.access_latency)
                .forward;
      }
      host.nics.push_back(att);
    }
    c.hosts.push_back(std::move(host));
  }

  c.rebuild_gpu_index();
  return c;
}

}  // namespace hpn::topo
