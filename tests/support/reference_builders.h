// Pre-refactor topology builders, preserved verbatim for differential
// testing. The HPN / DCN+ / fat-tree bodies are copies of the builders as
// they existed before the `Fabric` strategy refactor; the rail-only,
// RailX-lite and UB-Mesh-lite bodies, attach_frontend and
// attach_backend_storage are copies from before the shared host-wiring
// routine (src/topo/host_wiring.h). Each builder reads its own copy of the
// config struct of its time, LinkSpeeds and all, so no body ever moves when
// a production knob is deleted. test_fabric_equivalence asserts that the
// production builders reproduce their output exactly: every node and link
// field, every Host index, the circuit schedule, FIBs and hashed traces.
//
// Do NOT modernize or "fix" this file alongside production changes —
// its entire value is that it does not move.
#pragma once

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/check.h"
#include "topo/cluster.h"
#include "topo/frontend.h"

namespace hpn::reference {

using topo::Arch;
using topo::Cluster;
using topo::Host;
using topo::LinkKind;
using topo::Location;
using topo::NicAttachment;
using topo::NodeKind;
using topo::StorageHost;

// ---- Config structs, as the builders below read them ------------------------

/// Physical channel properties shared by all builders.
struct LinkSpeeds {
  Bandwidth access = Bandwidth::gbps(200);     ///< NIC port <-> ToR.
  Bandwidth fabric = Bandwidth::gbps(400);     ///< Switch <-> switch.
  /// NVLink per direction. The paper quotes "400GBps bidirectional" for the
  /// H800 eval hosts, i.e. 200 GB/s each way.
  Bandwidth nvlink = Bandwidth::gigabytes_per_sec(200);
  Bandwidth pcie = Bandwidth::gbps(512);       ///< GPU <-> NIC, Gen5 x16.
  Duration nvlink_latency = Duration::nanos(300);
  Duration pcie_latency = Duration::nanos(500);
  Duration access_latency = Duration::micros(1);
  Duration fabric_latency = Duration::micros(1);
};

struct HpnConfig {
  int pods = 1;
  int segments_per_pod = 1;
  int hosts_per_segment = 128;        ///< Active hosts (1024 GPUs).
  int backup_hosts_per_segment = 0;   ///< Paper reserves 8 (§5.1).
  int gpus_per_host = 8;              ///< = number of rails.
  bool dual_tor = true;               ///< false: single-ToR baseline (§9.3).
  bool dual_plane = true;             ///< false: typical Clos tier2 (Fig 12a).
  bool rail_optimized = true;         ///< false: all rails share one ToR set.
  bool rail_only_tier2 = false;       ///< Table 4 variant.
  int tor_uplinks = 60;               ///< 400G uplinks per ToR.
  int aggs_per_plane = 60;            ///< Agg switches per plane per Pod.
  int agg_core_uplinks = 8;           ///< vs 120 downlinks -> 15:1 (§6.2).
  int cores_per_plane = 0;            ///< 0 = auto (= agg_core_uplinks).
  LinkSpeeds speeds;

  /// A small instance for tests: shape-identical, minutes -> milliseconds.
  static HpnConfig tiny() {
    HpnConfig cfg;
    cfg.pods = 1;
    cfg.segments_per_pod = 2;
    cfg.hosts_per_segment = 4;
    cfg.tor_uplinks = 4;
    cfg.aggs_per_plane = 4;
    cfg.agg_core_uplinks = 2;
    return cfg;
  }
};

struct DcnPlusConfig {
  int pods = 1;
  int segments_per_pod = 4;
  int hosts_per_segment = 16;         ///< 128 GPUs per segment.
  int gpus_per_host = 8;
  bool dual_tor = true;
  int aggs_per_pod = 8;
  int links_per_tor_agg = 8;          ///< ToR: 8 aggs x 8 links = 64x400G up.
  int agg_core_uplinks = 64;          ///< Full bisection (1:1).
  int core_count = 0;                 ///< 0 = auto (16).
  LinkSpeeds speeds;
};

struct FatTreeConfig {
  int k = 4;                          ///< Even; hosts = k^3/4.
  Bandwidth link = Bandwidth::gbps(400);
  Duration latency = Duration::micros(1);
};

struct RailOnlyConfig {
  int hosts = 8;
  int gpus_per_host = 8;           ///< = rail count.
  bool dual_tor = true;            ///< Keep HPN's dual-ToR access for parity.
  LinkSpeeds speeds;
};

struct RailXConfig {
  int groups = 5;                  ///< >= 2; odd keeps every epoch connected.
  int hosts_per_group = 2;
  int gpus_per_host = 8;
  LinkSpeeds speeds;
};

struct UbMeshConfig {
  int rows = 2;
  int cols = 2;
  int hosts_per_switch = 2;
  int gpus_per_host = 8;
  LinkSpeeds speeds;
};

struct FrontendConfig {
  /// Compute hosts per frontend segment (dual-ToR pair).
  int hosts_per_segment = 16;
  int aggs = 8;
  /// CPFS/OSS storage hosts (96-128 in production, §8).
  int storage_hosts = 8;
  Bandwidth access = Bandwidth::gbps(200);  ///< 2x200G per NIC.
  Bandwidth fabric = Bandwidth::gbps(400);
  Duration latency = Duration::micros(1);
};

// ---- Builders ---------------------------------------------------------------

namespace detail {
inline std::string idx(std::string base, long v) { return base + std::to_string(v); }
}  // namespace detail

inline Cluster reference_build_hpn(const HpnConfig& cfg) {
  using detail::idx;
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
          std::string name = "agg" + std::to_string(pod) + ".p" + std::to_string(pl);
          if (cfg.rail_only_tier2) name += ".r" + std::to_string(rg);
          name += "." + std::to_string(i);
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

inline Cluster reference_build_dcn_plus(const DcnPlusConfig& cfg) {
  HPN_CHECK_MSG(cfg.pods >= 1 && cfg.segments_per_pod >= 1 && cfg.hosts_per_segment >= 1,
                "DCN+ config: counts must be positive");
  HPN_CHECK_MSG(cfg.aggs_per_pod >= 1 && cfg.links_per_tor_agg >= 1, "DCN+ config: tier2 shape");

  Cluster c;
  c.arch = Arch::kDcnPlus;
  c.gpus_per_host = cfg.gpus_per_host;
  c.pods = cfg.pods;
  c.segments_per_pod = cfg.segments_per_pod;

  const int planes = cfg.dual_tor ? 2 : 1;
  const bool has_tier3 = cfg.pods > 1;

  std::vector<std::vector<NodeId>> pod_aggs(static_cast<std::size_t>(cfg.pods));
  for (int pod = 0; pod < cfg.pods; ++pod) {
    for (int i = 0; i < cfg.aggs_per_pod; ++i) {
      Location loc;
      loc.pod = static_cast<std::int16_t>(pod);
      loc.local = i;
      const NodeId agg = c.topo.add_node(
          NodeKind::kAgg, "agg" + std::to_string(pod) + "." + std::to_string(i), loc);
      pod_aggs[static_cast<std::size_t>(pod)].push_back(agg);
      c.aggs.push_back(agg);
    }
  }

  for (int pod = 0; pod < cfg.pods; ++pod) {
    for (int seg = 0; seg < cfg.segments_per_pod; ++seg) {
      std::vector<NodeId> seg_tors;
      for (int pl = 0; pl < planes; ++pl) {
        Location loc;
        loc.pod = static_cast<std::int16_t>(pod);
        loc.segment = static_cast<std::int16_t>(seg);
        loc.plane = static_cast<std::int16_t>(pl);
        loc.local = pl;
        const NodeId tor = c.topo.add_node(
            NodeKind::kTor,
            "tor" + std::to_string(pod) + "." + std::to_string(seg) + "." + std::to_string(pl),
            loc);
        seg_tors.push_back(tor);
        c.tors.push_back(tor);
      }

      // Tier2: every ToR reaches every Agg in the pod with N parallel links.
      for (const NodeId tor : seg_tors) {
        for (const NodeId agg : pod_aggs[static_cast<std::size_t>(pod)]) {
          for (int i = 0; i < cfg.links_per_tor_agg; ++i) {
            c.topo.add_duplex_link(tor, agg, LinkKind::kFabric, cfg.speeds.fabric,
                                   cfg.speeds.fabric_latency);
          }
        }
      }

      for (int h = 0; h < cfg.hosts_per_segment; ++h) {
        Host host;
        host.index = static_cast<std::int32_t>(c.hosts.size());
        host.pod = static_cast<std::int16_t>(pod);
        host.segment = static_cast<std::int16_t>(seg);
        std::string hname = "h";
        hname += std::to_string(host.index);

        Location hloc;
        hloc.pod = host.pod;
        hloc.segment = host.segment;
        hloc.host = host.index;
        host.nvswitch = c.topo.add_node(NodeKind::kNvSwitch, hname + ".nvsw", hloc);

        for (int rail = 0; rail < cfg.gpus_per_host; ++rail) {
          Location gloc = hloc;
          gloc.rail = static_cast<std::int16_t>(rail);
          const NodeId gpu =
              c.topo.add_node(NodeKind::kGpu, hname + ".g" + std::to_string(rail), gloc);
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
          for (int pl = 0; pl < planes; ++pl) {
            att.tor[static_cast<std::size_t>(pl)] = seg_tors[static_cast<std::size_t>(pl)];
            att.access[static_cast<std::size_t>(pl)] =
                c.topo.add_duplex_link(nic, seg_tors[static_cast<std::size_t>(pl)],
                                       LinkKind::kAccess, cfg.speeds.access,
                                       cfg.speeds.access_latency)
                    .forward;
          }
          host.nics.push_back(att);
        }
        c.hosts.push_back(std::move(host));
      }
    }
  }

  if (has_tier3) {
    const int core_count = cfg.core_count > 0 ? cfg.core_count : 16;
    HPN_CHECK_MSG(cfg.agg_core_uplinks % core_count == 0,
                  "DCN+ agg_core_uplinks must divide evenly across cores");
    for (int i = 0; i < core_count; ++i) {
      Location loc;
      loc.local = i;
      c.cores.push_back(c.topo.add_node(NodeKind::kCore, "core." + std::to_string(i), loc));
    }
    const int per_core = cfg.agg_core_uplinks / core_count;
    for (int pod = 0; pod < cfg.pods; ++pod) {
      for (const NodeId agg : pod_aggs[static_cast<std::size_t>(pod)]) {
        for (const NodeId core : c.cores) {
          for (int i = 0; i < per_core; ++i) {
            c.topo.add_duplex_link(agg, core, LinkKind::kFabric, cfg.speeds.fabric,
                                   cfg.speeds.fabric_latency);
          }
        }
      }
    }
  }

  c.rebuild_gpu_index();
  return c;
}

inline Cluster reference_build_fat_tree(const FatTreeConfig& cfg) {
  HPN_CHECK_MSG(cfg.k >= 2 && cfg.k % 2 == 0, "fat tree requires even k >= 2");
  const int k = cfg.k;
  const int half = k / 2;

  Cluster c;
  c.arch = Arch::kFatTree;
  c.gpus_per_host = 1;
  c.pods = k;
  c.segments_per_pod = half;

  // Core layer: (k/2)^2 switches, grouped in k/2 groups of k/2.
  std::vector<NodeId> cores;
  for (int g = 0; g < half; ++g) {
    for (int i = 0; i < half; ++i) {
      Location loc;
      loc.local = g * half + i;
      cores.push_back(c.topo.add_node(
          NodeKind::kCore, "core." + std::to_string(g) + "." + std::to_string(i), loc));
    }
  }
  c.cores = cores;

  for (int pod = 0; pod < k; ++pod) {
    std::vector<NodeId> aggs;
    for (int a = 0; a < half; ++a) {
      Location loc;
      loc.pod = static_cast<std::int16_t>(pod);
      loc.local = a;
      const NodeId agg = c.topo.add_node(
          NodeKind::kAgg, "agg" + std::to_string(pod) + "." + std::to_string(a), loc);
      aggs.push_back(agg);
      c.aggs.push_back(agg);
      // Agg `a` connects to core group `a`, one link to each member.
      for (int i = 0; i < half; ++i) {
        c.topo.add_duplex_link(agg, cores[static_cast<std::size_t>(a * half + i)],
                               LinkKind::kFabric, cfg.link, cfg.latency);
      }
    }
    for (int e = 0; e < half; ++e) {
      Location loc;
      loc.pod = static_cast<std::int16_t>(pod);
      loc.segment = static_cast<std::int16_t>(e);
      loc.local = e;
      const NodeId tor = c.topo.add_node(
          NodeKind::kTor, "tor" + std::to_string(pod) + "." + std::to_string(e), loc);
      c.tors.push_back(tor);
      for (const NodeId agg : aggs) {
        c.topo.add_duplex_link(tor, agg, LinkKind::kFabric, cfg.link, cfg.latency);
      }
      for (int h = 0; h < half; ++h) {
        Host host;
        host.index = static_cast<std::int32_t>(c.hosts.size());
        host.pod = static_cast<std::int16_t>(pod);
        host.segment = static_cast<std::int16_t>(e);
        std::string hname = "h";
        hname += std::to_string(host.index);

        Location hloc;
        hloc.pod = host.pod;
        hloc.segment = host.segment;
        hloc.host = host.index;
        const NodeId gpu = c.topo.add_node(NodeKind::kGpu, hname + ".g0", hloc);
        const NodeId nic = c.topo.add_node(NodeKind::kNic, hname + ".nic0", hloc);
        host.gpus.push_back(gpu);
        host.gpu_pcie.push_back(
            c.topo.add_duplex_link(gpu, nic, LinkKind::kPcie, cfg.link, cfg.latency).forward);

        NicAttachment att;
        att.nic = nic;
        att.ports = 1;
        att.tor[0] = tor;
        att.access[0] =
            c.topo.add_duplex_link(nic, tor, LinkKind::kAccess, cfg.link, cfg.latency).forward;
        host.nics.push_back(att);
        c.hosts.push_back(std::move(host));
      }
    }
  }

  c.rebuild_gpu_index();
  return c;
}

inline Cluster reference_build_rail_only(const RailOnlyConfig& cfg) {
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

inline Cluster reference_build_railx(const RailXConfig& cfg) {
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

  // ToR grid: [group][rail].
  std::vector<std::vector<NodeId>> tor_grid(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    for (int rail = 0; rail < rails; ++rail) {
      Location loc;
      loc.pod = 0;
      loc.segment = static_cast<std::int16_t>(g);
      loc.rail = static_cast<std::int16_t>(rail);
      loc.local = g * rails + rail;
      const NodeId tor = c.topo.add_node(
          NodeKind::kTor, "tor.g" + std::to_string(g) + ".r" + std::to_string(rail), loc);
      tor_grid[static_cast<std::size_t>(g)].push_back(tor);
      c.tors.push_back(tor);
    }
  }

  for (int g = 0; g < groups; ++g) {
    for (int h = 0; h < cfg.hosts_per_group; ++h) {
      Host host;
      host.index = static_cast<std::int32_t>(c.hosts.size());
      host.pod = 0;
      host.segment = static_cast<std::int16_t>(g);
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
        att.ports = 1;
        const NodeId tor =
            tor_grid[static_cast<std::size_t>(g)][static_cast<std::size_t>(rail)];
        att.tor[0] = tor;
        att.access[0] =
            c.topo.add_duplex_link(nic, tor, LinkKind::kAccess, cfg.speeds.access,
                                   cfg.speeds.access_latency)
                .forward;
        host.nics.push_back(att);
      }
      c.hosts.push_back(std::move(host));
    }
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
        const LinkId l =
            c.topo.add_duplex_link(tor_grid[static_cast<std::size_t>(g)][static_cast<std::size_t>(rail)],
                                   tor_grid[static_cast<std::size_t>(peer)][static_cast<std::size_t>(rail)],
                                   LinkKind::kFabric, cfg.speeds.fabric,
                                   cfg.speeds.fabric_latency)
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

inline Cluster reference_build_ubmesh(const UbMeshConfig& cfg) {
  HPN_CHECK_MSG(cfg.rows >= 1 && cfg.cols >= 1, "ubmesh config: grid must be non-empty");
  HPN_CHECK_MSG(cfg.rows * cfg.cols >= 2, "ubmesh config: need at least two switches");
  HPN_CHECK_MSG(cfg.hosts_per_switch >= 1, "ubmesh config: need hosts on each switch");
  HPN_CHECK_MSG(cfg.gpus_per_host >= 1, "ubmesh config: need at least one GPU per host");

  Cluster c;
  c.arch = Arch::kUbMeshLite;
  c.gpus_per_host = cfg.gpus_per_host;
  c.pods = 1;
  c.segments_per_pod = cfg.rows * cfg.cols;

  // Switch grid: [row][col]. Every switch is its own "segment".
  std::vector<std::vector<NodeId>> grid(static_cast<std::size_t>(cfg.rows));
  for (int r = 0; r < cfg.rows; ++r) {
    for (int col = 0; col < cfg.cols; ++col) {
      const int idx = r * cfg.cols + col;
      Location loc;
      loc.pod = 0;
      loc.segment = static_cast<std::int16_t>(idx);
      loc.local = idx;
      const NodeId tor = c.topo.add_node(
          NodeKind::kTor, "mesh." + std::to_string(r) + "." + std::to_string(col), loc);
      grid[static_cast<std::size_t>(r)].push_back(tor);
      c.tors.push_back(tor);
    }
  }

  // Row meshes, then column meshes.
  for (int r = 0; r < cfg.rows; ++r) {
    for (int a = 0; a < cfg.cols; ++a) {
      for (int b = a + 1; b < cfg.cols; ++b) {
        c.topo.add_duplex_link(grid[static_cast<std::size_t>(r)][static_cast<std::size_t>(a)],
                               grid[static_cast<std::size_t>(r)][static_cast<std::size_t>(b)],
                               LinkKind::kFabric, cfg.speeds.fabric, cfg.speeds.fabric_latency);
      }
    }
  }
  for (int col = 0; col < cfg.cols; ++col) {
    for (int a = 0; a < cfg.rows; ++a) {
      for (int b = a + 1; b < cfg.rows; ++b) {
        c.topo.add_duplex_link(grid[static_cast<std::size_t>(a)][static_cast<std::size_t>(col)],
                               grid[static_cast<std::size_t>(b)][static_cast<std::size_t>(col)],
                               LinkKind::kFabric, cfg.speeds.fabric, cfg.speeds.fabric_latency);
      }
    }
  }

  for (int r = 0; r < cfg.rows; ++r) {
    for (int col = 0; col < cfg.cols; ++col) {
      const NodeId tor = grid[static_cast<std::size_t>(r)][static_cast<std::size_t>(col)];
      const int seg = r * cfg.cols + col;
      for (int h = 0; h < cfg.hosts_per_switch; ++h) {
        Host host;
        host.index = static_cast<std::int32_t>(c.hosts.size());
        host.pod = 0;
        host.segment = static_cast<std::int16_t>(seg);
        std::string hname = "h";
        hname += std::to_string(host.index);

        Location hloc;
        hloc.pod = host.pod;
        hloc.segment = host.segment;
        hloc.host = host.index;
        host.nvswitch = c.topo.add_node(NodeKind::kNvSwitch, hname + ".nvsw", hloc);

        for (int rail = 0; rail < cfg.gpus_per_host; ++rail) {
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
          att.ports = 1;
          att.tor[0] = tor;
          att.access[0] =
              c.topo.add_duplex_link(nic, tor, LinkKind::kAccess, cfg.speeds.access,
                                     cfg.speeds.access_latency)
                  .forward;
          host.nics.push_back(att);
        }
        c.hosts.push_back(std::move(host));
      }
    }
  }

  c.rebuild_gpu_index();
  return c;
}

inline std::vector<StorageHost> reference_attach_frontend(Cluster& c,
                                                          const FrontendConfig& cfg = {}) {
  HPN_CHECK(cfg.hosts_per_segment >= 1 && cfg.aggs >= 1 && cfg.storage_hosts >= 0);
  HPN_CHECK_MSG(c.frontend_tors.empty(), "frontend already attached");

  // Entities needing access: every compute host's NIC0 plus the storage
  // cluster; storage fills its own trailing segments.
  const int compute = static_cast<int>(c.hosts.size());
  const int total = compute + cfg.storage_hosts;
  const int segments = (total + cfg.hosts_per_segment - 1) / cfg.hosts_per_segment;

  // Agg layer (1:1): every frontend ToR connects once to every Agg.
  for (int a = 0; a < cfg.aggs; ++a) {
    Location loc;
    loc.pod = -2;  // frontend plane of the world
    loc.local = a;
    c.frontend_aggs.push_back(
        c.topo.add_node(NodeKind::kAgg, "f.agg" + std::to_string(a), loc));
  }

  std::vector<std::array<NodeId, 2>> tor_pairs;
  for (int s = 0; s < segments; ++s) {
    std::array<NodeId, 2> pair{};
    for (int p = 0; p < 2; ++p) {
      Location loc;
      loc.pod = -2;
      loc.segment = static_cast<std::int16_t>(s);
      loc.plane = static_cast<std::int16_t>(p);
      const NodeId tor = c.topo.add_node(
          NodeKind::kTor, "f.tor" + std::to_string(s) + "." + std::to_string(p), loc);
      pair[static_cast<std::size_t>(p)] = tor;
      c.frontend_tors.push_back(tor);
      for (const NodeId agg : c.frontend_aggs) {
        c.topo.add_duplex_link(tor, agg, LinkKind::kFabric, cfg.fabric, cfg.latency);
      }
    }
    tor_pairs.push_back(pair);
  }

  auto wire = [&](NodeId endpoint, int slot) {
    const auto& pair = tor_pairs.at(static_cast<std::size_t>(slot / cfg.hosts_per_segment));
    NicAttachment att;
    att.nic = endpoint;
    att.ports = 2;
    for (int p = 0; p < 2; ++p) {
      att.tor[static_cast<std::size_t>(p)] = pair[static_cast<std::size_t>(p)];
      att.access[static_cast<std::size_t>(p)] =
          c.topo.add_duplex_link(endpoint, pair[static_cast<std::size_t>(p)],
                                 LinkKind::kAccess, cfg.access, cfg.latency)
              .forward;
    }
    return att;
  };

  int slot = 0;
  for (Host& h : c.hosts) {
    Location loc;
    loc.pod = -2;
    loc.host = h.index;
    std::string name = "h";
    name += std::to_string(h.index);
    name += ".fnic";
    h.frontend_nic = c.topo.add_node(NodeKind::kNic, std::move(name), loc);
    wire(h.frontend_nic, slot++);
  }

  std::vector<StorageHost> storage;
  for (int i = 0; i < cfg.storage_hosts; ++i) {
    Location loc;
    loc.pod = -2;
    loc.local = i;
    StorageHost sh;
    sh.host = c.topo.add_node(NodeKind::kStorage, "storage" + std::to_string(i), loc);
    sh.nic = wire(sh.host, slot++);
    sh.on_backend = false;
    storage.push_back(sh);
  }
  return storage;
}

inline std::vector<StorageHost> reference_attach_backend_storage(
    Cluster& c, int storage_hosts, Bandwidth access = Bandwidth::gbps(200),
    Duration latency = Duration::micros(1)) {
  HPN_CHECK(storage_hosts >= 1);
  HPN_CHECK_MSG(!c.hosts.empty(), "attach storage to a built cluster");
  const int rails = c.gpus_per_host;

  std::vector<StorageHost> storage;
  for (int i = 0; i < storage_hosts; ++i) {
    // Spread across segment-0's rail ToR pairs, eating the backup ports the
    // paper reserves for host replacement (§10: "consumes ToR ports").
    const int rail = i % rails;
    const auto& reference = c.hosts.front().nics.at(static_cast<std::size_t>(rail));
    Location loc;
    loc.pod = 0;
    loc.segment = 0;
    loc.rail = static_cast<std::int16_t>(rail);
    loc.local = i;
    StorageHost sh;
    sh.on_backend = true;
    sh.host = c.topo.add_node(NodeKind::kStorage, "bstorage" + std::to_string(i), loc);
    sh.nic.nic = sh.host;
    sh.nic.ports = reference.ports;
    for (int p = 0; p < reference.ports; ++p) {
      const NodeId tor = reference.tor.at(static_cast<std::size_t>(p));
      sh.nic.tor[static_cast<std::size_t>(p)] = tor;
      sh.nic.access[static_cast<std::size_t>(p)] =
          c.topo.add_duplex_link(sh.host, tor, LinkKind::kAccess, access, latency).forward;
    }
    storage.push_back(sh);
  }
  return storage;
}

}  // namespace hpn::reference
