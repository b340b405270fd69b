// DCN+ (Appendix C): Alibaba's previous-generation 3-tier Clos training
// fabric. Dual-ToR, *not* rail-optimized: all 8 NICs of a host land on the
// same ToR pair, so a segment holds only 16 hosts (128 GPUs) and a Pod 4
// segments; jobs beyond 512 GPUs cross the Core layer and hash three times.
#include <string>

#include "common/check.h"
#include "topo/builders.h"
#include "topo/host_wiring.h"

namespace hpn::topo {
namespace {

constexpr int kCoreCount = 16;  ///< Tier3 switches, shared by every Pod.

}  // namespace

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
            c.topo.add_duplex_link(tor, agg, LinkKind::kFabric, kLinkSpeeds.fabric,
                                   kLinkSpeeds.fabric_latency);
          }
        }
      }

      for (int h = 0; h < cfg.hosts_per_segment; ++h) {
        add_host(c, pod, seg, {seg_tors, planes, 0});
      }
    }
  }

  if (has_tier3) {
    HPN_CHECK_MSG(cfg.agg_core_uplinks % kCoreCount == 0,
                  "DCN+ agg_core_uplinks must divide evenly across cores");
    for (int i = 0; i < kCoreCount; ++i) {
      Location loc;
      loc.local = i;
      c.cores.push_back(c.topo.add_node(NodeKind::kCore, "core." + std::to_string(i), loc));
    }
    const int per_core = cfg.agg_core_uplinks / kCoreCount;
    for (int pod = 0; pod < cfg.pods; ++pod) {
      for (const NodeId agg : pod_aggs[static_cast<std::size_t>(pod)]) {
        for (const NodeId core : c.cores) {
          for (int i = 0; i < per_core; ++i) {
            c.topo.add_duplex_link(agg, core, LinkKind::kFabric, kLinkSpeeds.fabric,
                                   kLinkSpeeds.fabric_latency);
          }
        }
      }
    }
  }

  c.rebuild_gpu_index();
  return c;
}

}  // namespace hpn::topo
