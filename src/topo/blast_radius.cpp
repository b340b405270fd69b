#include "topo/blast_radius.h"

#include <algorithm>

#include "common/check.h"
#include "topo/validate.h"

namespace hpn::topo {
namespace {

BlastRadius assess(const Cluster& c, std::string component) {
  BlastRadius r;
  r.component = std::move(component);
  double total_ports = 0.0, dead_ports = 0.0;
  for (const Host& h : c.hosts) {
    bool isolated = false, degraded = false;
    for (const NicAttachment& att : h.nics) {
      int live = 0;
      for (int p = 0; p < att.ports; ++p) {
        const bool up = c.topo.is_up(att.access.at(static_cast<std::size_t>(p)));
        live += up;
        total_ports += 1.0;
        dead_ports += up ? 0.0 : 1.0;
      }
      if (live == 0) isolated = true;
      if (live < att.ports) degraded = true;
    }
    if (isolated) {
      ++r.isolated_hosts;
    } else if (degraded) {
      ++r.degraded_hosts;
    }
  }
  r.bandwidth_lost_fraction = total_ports > 0.0 ? dead_ports / total_ports : 0.0;
  return r;
}

}  // namespace

BlastRadius blast_radius_of_node(Cluster& cluster, NodeId victim) {
  std::vector<LinkId> dropped;
  for (const LinkId l : cluster.topo.out_links(victim)) {
    if (cluster.topo.is_up(l)) {
      cluster.topo.set_duplex_up(l, false);
      dropped.push_back(l);
    }
  }
  BlastRadius r = assess(cluster, std::string{to_string(cluster.topo.node(victim).kind)} +
                                      " " + cluster.topo.node(victim).name);
  for (const LinkId l : dropped) cluster.topo.set_duplex_up(l, true);
  return r;
}

BlastRadius blast_radius_of_access(Cluster& cluster, int host, int rail, int port) {
  const NicAttachment& att = cluster.hosts.at(static_cast<std::size_t>(host))
                                 .nics.at(static_cast<std::size_t>(rail));
  HPN_CHECK(port >= 0 && port < att.ports);
  const LinkId l = att.access.at(static_cast<std::size_t>(port));
  cluster.topo.set_duplex_up(l, false);
  BlastRadius r = assess(cluster, "access link h" + std::to_string(host) + "/rail" +
                                      std::to_string(rail) + "/port" + std::to_string(port));
  cluster.topo.set_duplex_up(l, true);
  return r;
}

BlastRadius worst_blast_radius(Cluster& cluster, NodeKind kind) {
  BlastRadius worst;
  worst.component = std::string{"no "} + std::string{to_string(kind)};
  for (const Node& n : cluster.topo.nodes()) {
    if (n.kind != kind) continue;
    const BlastRadius r = blast_radius_of_node(cluster, n.id);
    if (r.isolated_hosts > worst.isolated_hosts ||
        (r.isolated_hosts == worst.isolated_hosts &&
         r.degraded_hosts > worst.degraded_hosts)) {
      worst = r;
    }
  }
  return worst;
}

}  // namespace hpn::topo
