#include "topo/host_wiring.h"

#include <string>

#include "common/check.h"
#include "topo/builders.h"

namespace hpn::topo {

NicAttachment wire_nic(Topology& topo, NodeId nic, std::span<const NodeId> tors,
                       Bandwidth capacity, Duration latency) {
  HPN_CHECK(!tors.empty() && tors.size() <= 2);
  NicAttachment att;
  att.nic = nic;
  att.ports = static_cast<int>(tors.size());
  for (std::size_t p = 0; p < tors.size(); ++p) {
    att.tor[p] = tors[p];
    att.access[p] =
        topo.add_duplex_link(nic, tors[p], LinkKind::kAccess, capacity, latency).forward;
  }
  return att;
}

void add_host(Cluster& c, int pod, int segment, const HostAccess& access, bool backup) {
  const int rails = c.gpus_per_host;
  HPN_CHECK(access.ports >= 1 && access.rail_stride >= 0 &&
            (rails - 1) * access.rail_stride + access.ports <=
                static_cast<int>(access.tors.size()));
  Host host;
  host.index = static_cast<std::int32_t>(c.hosts.size());
  host.pod = static_cast<std::int16_t>(pod);
  host.segment = static_cast<std::int16_t>(segment);
  host.backup = backup;
  host.gpus.reserve(static_cast<std::size_t>(rails));
  host.gpu_nvlink.reserve(static_cast<std::size_t>(rails));
  host.gpu_pcie.reserve(static_cast<std::size_t>(rails));
  host.nics.reserve(static_cast<std::size_t>(rails));

  Location loc;
  loc.pod = host.pod;
  loc.segment = host.segment;
  loc.host = host.index;
  std::string name = "h";
  name += std::to_string(host.index);
  const std::size_t stem = name.size();
  name += ".nvsw";
  host.nvswitch = c.topo.add_node(NodeKind::kNvSwitch, name, loc);

  for (int rail = 0; rail < rails; ++rail) {
    loc.rail = static_cast<std::int16_t>(rail);
    name.resize(stem);
    name += ".g";
    name += std::to_string(rail);
    const NodeId gpu = c.topo.add_node(NodeKind::kGpu, name, loc);
    host.gpus.push_back(gpu);
    host.gpu_nvlink.push_back(c.topo
                                  .add_duplex_link(gpu, host.nvswitch, LinkKind::kNvlink,
                                                   kLinkSpeeds.nvlink, kLinkSpeeds.nvlink_latency)
                                  .forward);
    name.resize(stem);
    name += ".nic";
    name += std::to_string(rail);
    const NodeId nic = c.topo.add_node(NodeKind::kNic, name, loc);
    host.gpu_pcie.push_back(c.topo
                                .add_duplex_link(gpu, nic, LinkKind::kPcie, kLinkSpeeds.pcie,
                                                 kLinkSpeeds.pcie_latency)
                                .forward);
    host.nics.push_back(wire_nic(
        c.topo, nic,
        access.tors.subspan(static_cast<std::size_t>(rail * access.rail_stride),
                            static_cast<std::size_t>(access.ports)),
        kLinkSpeeds.access, kLinkSpeeds.access_latency));
  }
  c.hosts.push_back(std::move(host));
}

}  // namespace hpn::topo
