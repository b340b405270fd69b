#include "topo/frontend.h"

#include <string>

#include "common/check.h"
#include "topo/builders.h"
#include "topo/host_wiring.h"

namespace hpn::topo {
namespace {

constexpr int kHostsPerSegment = 16;  ///< Compute hosts per frontend ToR pair.
constexpr int kAggs = 8;
constexpr int kStorageHosts = 8;      ///< CPFS/OSS hosts (96-128 in production, §8).

}  // namespace

std::vector<StorageHost> attach_frontend(Cluster& c) {
  HPN_CHECK_MSG(c.frontend_tors.empty(), "frontend already attached");

  // Entities needing access: every compute host's NIC0 plus the storage
  // cluster; storage fills its own trailing segments.
  const int compute = static_cast<int>(c.hosts.size());
  const int total = compute + kStorageHosts;
  const int segments = (total + kHostsPerSegment - 1) / kHostsPerSegment;

  // Agg layer (1:1): every frontend ToR connects once to every Agg.
  for (int a = 0; a < kAggs; ++a) {
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
        c.topo.add_duplex_link(tor, agg, LinkKind::kFabric, kLinkSpeeds.fabric,
                               kLinkSpeeds.fabric_latency);
      }
    }
    tor_pairs.push_back(pair);
  }

  auto wire = [&](NodeId endpoint, int slot) {
    return wire_nic(c.topo, endpoint,
                    tor_pairs.at(static_cast<std::size_t>(slot / kHostsPerSegment)),
                    kLinkSpeeds.access, kLinkSpeeds.access_latency);
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
  for (int i = 0; i < kStorageHosts; ++i) {
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

std::vector<StorageHost> attach_backend_storage(Cluster& c, int storage_hosts) {
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
    sh.nic = wire_nic(c.topo, sh.host,
                      std::span{reference.tor}.first(static_cast<std::size_t>(reference.ports)),
                      kLinkSpeeds.access, kLinkSpeeds.access_latency);
    storage.push_back(sh);
  }
  return storage;
}

}  // namespace hpn::topo
