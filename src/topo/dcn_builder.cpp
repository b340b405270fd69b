// DCN+ (Appendix C): Alibaba's previous-generation 3-tier Clos training
// fabric. Dual-ToR, *not* rail-optimized: all 8 NICs of a host land on the
// same ToR pair, so a segment holds only 16 hosts (128 GPUs) and a Pod 4
// segments; jobs beyond 512 GPUs cross the Core layer and hash three times.
#include <string>

#include "common/check.h"
#include "topo/builders.h"

namespace hpn::topo {

DcnPlusConfig DcnPlusConfig::paper_pod() { return DcnPlusConfig{}; }

Cluster build_dcn_plus(const DcnPlusConfig& cfg) {
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

}  // namespace hpn::topo
