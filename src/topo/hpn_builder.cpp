#include <string>

#include "common/check.h"
#include "topo/builders.h"

namespace hpn::topo {
namespace {

std::string idx(std::string base, long v) { return base + std::to_string(v); }

}  // namespace

HpnConfig HpnConfig::paper_pod() {
  HpnConfig cfg;
  cfg.pods = 1;
  cfg.segments_per_pod = 15;
  cfg.hosts_per_segment = 128;
  cfg.backup_hosts_per_segment = 8;
  return cfg;
}

HpnConfig HpnConfig::tiny() {
  HpnConfig cfg;
  cfg.pods = 1;
  cfg.segments_per_pod = 2;
  cfg.hosts_per_segment = 4;
  cfg.tor_uplinks = 4;
  cfg.aggs_per_plane = 4;
  cfg.agg_core_uplinks = 2;
  return cfg;
}

Cluster build_hpn(const HpnConfig& cfg) {
  HPN_CHECK_MSG(cfg.pods >= 1 && cfg.segments_per_pod >= 1 && cfg.hosts_per_segment >= 1,
                "HPN config: counts must be positive");
  HPN_CHECK_MSG(cfg.gpus_per_host >= 1, "HPN config: need at least one rail");
  if (cfg.rail_only_tier2) {
    HPN_CHECK_MSG(cfg.dual_plane && cfg.rail_optimized,
                  "rail-only tier2 presumes dual-plane rail-optimized tier1");
  }

  Cluster c;
  c.arch = cfg.rail_only_tier2 ? Arch::kHpnRailOnly
           : cfg.dual_plane    ? Arch::kHpn
                               : Arch::kHpnSinglePlane;
  c.gpus_per_host = cfg.gpus_per_host;
  c.pods = cfg.pods;
  c.segments_per_pod = cfg.segments_per_pod;

  const int planes = cfg.dual_tor ? 2 : 1;
  const int rails = cfg.gpus_per_host;
  const int tor_rail_sets = cfg.rail_optimized ? rails : 1;
  const bool has_tier2 = cfg.segments_per_pod > 1 || cfg.pods > 1;
  const bool has_tier3 = cfg.pods > 1;

  // ToR grid: [pod][segment][rail_set][plane].
  std::vector<std::vector<std::vector<std::vector<NodeId>>>> tor_grid(
      static_cast<std::size_t>(cfg.pods));

  // ---- Tier-2 Agg switches -------------------------------------------------
  // [pod][plane][rail (or 0)][i]. Single-plane ablation shares one group.
  std::vector<std::vector<std::vector<std::vector<NodeId>>>> agg_grid(
      static_cast<std::size_t>(cfg.pods));
  for (int pod = 0; pod < cfg.pods; ++pod) {
    auto& pod_aggs = agg_grid[static_cast<std::size_t>(pod)];
    if (!has_tier2) continue;
    const int agg_planes = cfg.dual_plane ? planes : 1;
    const int agg_rail_groups = cfg.rail_only_tier2 ? rails : 1;
    pod_aggs.resize(static_cast<std::size_t>(agg_planes));
    for (int pl = 0; pl < agg_planes; ++pl) {
      auto& plane_groups = pod_aggs[static_cast<std::size_t>(pl)];
      plane_groups.resize(static_cast<std::size_t>(agg_rail_groups));
      for (int rg = 0; rg < agg_rail_groups; ++rg) {
        for (int i = 0; i < cfg.aggs_per_plane; ++i) {
          Location loc;
          loc.pod = static_cast<std::int16_t>(pod);
          loc.plane = static_cast<std::int16_t>(cfg.dual_plane ? pl : -1);
          loc.rail = static_cast<std::int16_t>(cfg.rail_only_tier2 ? rg : -1);
          loc.local = i;
          std::string name = "agg";
          name += std::to_string(pod);
          name += ".p";
          name += std::to_string(pl);
          if (cfg.rail_only_tier2) {
            name += ".r";
            name += std::to_string(rg);
          }
          name += '.';
          name += std::to_string(i);
          const NodeId agg = c.topo.add_node(NodeKind::kAgg, std::move(name), loc);
          plane_groups[static_cast<std::size_t>(rg)].push_back(agg);
          c.aggs.push_back(agg);
        }
      }
    }
  }

  // ---- Segments: ToRs and hosts -------------------------------------------
  for (int pod = 0; pod < cfg.pods; ++pod) {
    auto& pod_tors = tor_grid[static_cast<std::size_t>(pod)];
    pod_tors.resize(static_cast<std::size_t>(cfg.segments_per_pod));
    for (int seg = 0; seg < cfg.segments_per_pod; ++seg) {
      auto& seg_tors = pod_tors[static_cast<std::size_t>(seg)];
      seg_tors.resize(static_cast<std::size_t>(tor_rail_sets));
      for (int rs = 0; rs < tor_rail_sets; ++rs) {
        for (int pl = 0; pl < planes; ++pl) {
          Location loc;
          loc.pod = static_cast<std::int16_t>(pod);
          loc.segment = static_cast<std::int16_t>(seg);
          loc.plane = static_cast<std::int16_t>(pl);
          loc.rail = static_cast<std::int16_t>(cfg.rail_optimized ? rs : -1);
          loc.local = rs * planes + pl;
          std::string name = "tor" + std::to_string(pod) + "." + std::to_string(seg) +
                             ".r" + std::to_string(rs) + "p" + std::to_string(pl);
          const NodeId tor = c.topo.add_node(NodeKind::kTor, std::move(name), loc);
          seg_tors[static_cast<std::size_t>(rs)].push_back(tor);
          c.tors.push_back(tor);
        }
      }

      const int total_hosts = cfg.hosts_per_segment + cfg.backup_hosts_per_segment;
      for (int h = 0; h < total_hosts; ++h) {
        Host host;
        host.index = static_cast<std::int32_t>(c.hosts.size());
        host.pod = static_cast<std::int16_t>(pod);
        host.segment = static_cast<std::int16_t>(seg);
        host.backup = h >= cfg.hosts_per_segment;
        const std::string hname = idx("h", host.index);

        Location hloc;
        hloc.pod = host.pod;
        hloc.segment = host.segment;
        hloc.host = host.index;
        host.nvswitch = c.topo.add_node(NodeKind::kNvSwitch, hname + ".nvsw", hloc);

        for (int rail = 0; rail < rails; ++rail) {
          Location gloc = hloc;
          gloc.rail = static_cast<std::int16_t>(rail);
          const NodeId gpu = c.topo.add_node(NodeKind::kGpu, hname + ".g" + std::to_string(rail), gloc);
          host.gpus.push_back(gpu);
          host.gpu_nvlink.push_back(
              c.topo.add_duplex_link(gpu, host.nvswitch, LinkKind::kNvlink,
                                     cfg.speeds.nvlink, cfg.speeds.nvlink_latency)
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
          const int rs = cfg.rail_optimized ? rail : 0;
          for (int pl = 0; pl < planes; ++pl) {
            const NodeId tor =
                seg_tors[static_cast<std::size_t>(rs)][static_cast<std::size_t>(pl)];
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
    }
  }

  // ---- Tier-2 wiring -------------------------------------------------------
  if (has_tier2) {
    for (int pod = 0; pod < cfg.pods; ++pod) {
      for (int seg = 0; seg < cfg.segments_per_pod; ++seg) {
        for (int rs = 0; rs < tor_rail_sets; ++rs) {
          for (int pl = 0; pl < planes; ++pl) {
            const NodeId tor = tor_grid[static_cast<std::size_t>(pod)]
                                       [static_cast<std::size_t>(seg)]
                                       [static_cast<std::size_t>(rs)]
                                       [static_cast<std::size_t>(pl)];
            // Dual-plane: a ToR only uplinks into its own plane's aggs; the
            // flow's plane (and thus its whole tier-2 path set) is fixed the
            // moment the NIC picks an egress port (§6.1).
            const auto& pod_aggs = agg_grid[static_cast<std::size_t>(pod)];
            const auto& groups =
                cfg.dual_plane ? pod_aggs[static_cast<std::size_t>(pl)] : pod_aggs[0];
            const auto& targets = cfg.rail_only_tier2
                                      ? groups[static_cast<std::size_t>(rs)]
                                      : groups[0];
            HPN_CHECK_MSG(!targets.empty(), "tier2 requested but no aggs built");
            HPN_CHECK_MSG(cfg.tor_uplinks % static_cast<int>(targets.size()) == 0,
                          "tor_uplinks " << cfg.tor_uplinks << " not divisible by agg count "
                                         << targets.size());
            const int per_agg = cfg.tor_uplinks / static_cast<int>(targets.size());
            for (const NodeId agg : targets) {
              for (int i = 0; i < per_agg; ++i) {
                c.topo.add_duplex_link(tor, agg, LinkKind::kFabric, cfg.speeds.fabric,
                                       cfg.speeds.fabric_latency);
              }
            }
          }
        }
      }
    }
  }

  // ---- Tier-3 wiring -------------------------------------------------------
  if (has_tier3) {
    const int agg_planes = cfg.dual_plane ? planes : 1;
    const int cores_per_plane =
        cfg.cores_per_plane > 0 ? cfg.cores_per_plane : cfg.agg_core_uplinks;
    std::vector<std::vector<NodeId>> core_grid(static_cast<std::size_t>(agg_planes));
    for (int pl = 0; pl < agg_planes; ++pl) {
      for (int i = 0; i < cores_per_plane; ++i) {
        Location loc;
        loc.plane = static_cast<std::int16_t>(cfg.dual_plane ? pl : -1);
        loc.local = i;
        const NodeId core = c.topo.add_node(
            NodeKind::kCore, "core.p" + std::to_string(pl) + "." + std::to_string(i), loc);
        core_grid[static_cast<std::size_t>(pl)].push_back(core);
        c.cores.push_back(core);
      }
    }
    for (int pod = 0; pod < cfg.pods; ++pod) {
      const auto& pod_aggs = agg_grid[static_cast<std::size_t>(pod)];
      for (int pl = 0; pl < agg_planes; ++pl) {
        const auto& groups = pod_aggs[static_cast<std::size_t>(pl)];
        for (const auto& group : groups) {
          for (std::size_t a = 0; a < group.size(); ++a) {
            for (int u = 0; u < cfg.agg_core_uplinks; ++u) {
              // Rotate by agg index so every core serves every pod.
              const auto core_idx =
                  (static_cast<std::size_t>(u) + a) % static_cast<std::size_t>(cores_per_plane);
              c.topo.add_duplex_link(group[a], core_grid[static_cast<std::size_t>(pl)][core_idx],
                                     LinkKind::kFabric, cfg.speeds.fabric,
                                     cfg.speeds.fabric_latency);
            }
          }
        }
      }
    }
  }

  c.rebuild_gpu_index();
  return c;
}

}  // namespace hpn::topo
