// UB-Mesh-lite: a rows x cols switch grid, full-mesh wired along every row
// and every column (a 2D HyperX). Any two switches are <= 2 fabric hops
// apart (same row/column: 1; otherwise: row-then-column or column-then-row,
// which ECMP naturally load-balances as two equal-cost paths). Hosts attach
// all NICs single-port to their local switch — the mesh trades the Clos
// aggregation tier for wider switch-to-switch fan-out.
#include <string>

#include "common/check.h"
#include "topo/builders.h"
#include "topo/host_wiring.h"

namespace hpn::topo {

Cluster build_ubmesh(const UbMeshConfig& cfg) {
  HPN_CHECK_MSG(cfg.rows >= 1 && cfg.cols >= 1, "ubmesh config: grid must be non-empty");
  HPN_CHECK_MSG(cfg.rows * cfg.cols >= 2, "ubmesh config: need at least two switches");
  HPN_CHECK_MSG(cfg.hosts_per_switch >= 1, "ubmesh config: need hosts on each switch");
  HPN_CHECK_MSG(cfg.gpus_per_host >= 1, "ubmesh config: need at least one GPU per host");

  Cluster c;
  c.arch = Arch::kUbMeshLite;
  c.gpus_per_host = cfg.gpus_per_host;
  c.pods = 1;
  c.segments_per_pod = cfg.rows * cfg.cols;

  // c.tors is the switch grid: [row][col], column fastest. Every switch is
  // its own "segment".
  const auto at = [&c, &cfg](int r, int col) {
    return c.tors[static_cast<std::size_t>(r * cfg.cols + col)];
  };
  for (int r = 0; r < cfg.rows; ++r) {
    for (int col = 0; col < cfg.cols; ++col) {
      const int idx = r * cfg.cols + col;
      Location loc;
      loc.pod = 0;
      loc.segment = static_cast<std::int16_t>(idx);
      loc.local = idx;
      c.tors.push_back(c.topo.add_node(
          NodeKind::kTor, "mesh." + std::to_string(r) + "." + std::to_string(col), loc));
    }
  }

  // Row meshes, then column meshes.
  for (int r = 0; r < cfg.rows; ++r) {
    for (int a = 0; a < cfg.cols; ++a) {
      for (int b = a + 1; b < cfg.cols; ++b) {
        c.topo.add_duplex_link(at(r, a), at(r, b), LinkKind::kFabric, kLinkSpeeds.fabric,
                               kLinkSpeeds.fabric_latency);
      }
    }
  }
  for (int col = 0; col < cfg.cols; ++col) {
    for (int a = 0; a < cfg.rows; ++a) {
      for (int b = a + 1; b < cfg.rows; ++b) {
        c.topo.add_duplex_link(at(a, col), at(b, col), LinkKind::kFabric, kLinkSpeeds.fabric,
                               kLinkSpeeds.fabric_latency);
      }
    }
  }

  for (int seg = 0; seg < cfg.rows * cfg.cols; ++seg) {
    const HostAccess access{std::span<const NodeId>{c.tors}.subspan(
                                static_cast<std::size_t>(seg), 1),
                            1, 0};
    for (int h = 0; h < cfg.hosts_per_switch; ++h) add_host(c, 0, seg, access);
  }

  c.rebuild_gpu_index();
  return c;
}

}  // namespace hpn::topo
