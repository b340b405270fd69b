// UB-Mesh-lite: a rows x cols switch grid, full-mesh wired along every row
// and every column (a 2D HyperX). Any two switches are <= 2 fabric hops
// apart (same row/column: 1; otherwise: row-then-column or column-then-row,
// which ECMP naturally load-balances as two equal-cost paths). Hosts attach
// all NICs single-port to their local switch — the mesh trades the Clos
// aggregation tier for wider switch-to-switch fan-out.
#include <string>

#include "common/check.h"
#include "topo/builders.h"

namespace hpn::topo {

UbMeshConfig UbMeshConfig::tiny() {
  UbMeshConfig cfg;
  cfg.rows = 2;
  cfg.cols = 2;
  cfg.hosts_per_switch = 2;
  return cfg;
}

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

}  // namespace hpn::topo
