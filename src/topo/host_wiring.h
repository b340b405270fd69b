// Host and NIC wiring shared by the topology builders and the frontend /
// storage attachments; private to src/topo.
#pragma once

#include <span>

#include "topo/cluster.h"

namespace hpn::topo {

/// Wires `nic` to `tors` (1 or 2 ToRs; port p goes to tors[p]) with one
/// access duplex per port, in port order, and returns the attachment.
NicAttachment wire_nic(Topology& topo, NodeId nic, std::span<const NodeId> tors,
                       Bandwidth capacity, Duration latency);

/// Which ToRs a host's NICs attach to: rail r's NIC gets `ports` ports, to
/// tors[r * rail_stride, r * rail_stride + ports). Stride 0 puts every rail
/// on the same ToRs.
struct HostAccess {
  std::span<const NodeId> tors;
  int ports = 1;
  int rail_stride = 0;
};

/// Appends host `c.hosts.size()` of (pod, segment) with `c.gpus_per_host`
/// rails: its NVSwitch, then per rail a GPU, the GPU <-> NVSwitch NVLink
/// duplex, the NIC, the GPU <-> NIC PCIe duplex and the NIC's access links.
void add_host(Cluster& c, int pod, int segment, const HostAccess& access, bool backup = false);

}  // namespace hpn::topo
