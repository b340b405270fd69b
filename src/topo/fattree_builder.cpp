// Classic k-ary fat tree (Al-Fares et al., SIGCOMM'08) — the Table 1
// 3-tier comparator. Hosts carry a single single-port NIC; every layer
// hashes, so elephant flows traverse up to three hash stages.
#include <string>

#include "common/check.h"
#include "topo/builders.h"

namespace hpn::topo {

Cluster build_fat_tree(const FatTreeConfig& cfg) {
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

}  // namespace hpn::topo
