// Topology builders for every architecture the paper discusses:
//
//  * HPN          — §3–§7: rail-optimized tier1 (1 segment = 1024+64 GPUs on
//                   16 ToRs), dual-plane tier2 (15 segments per Pod), 15:1
//                   oversubscribed tier3 across Pods.
//  * HPN ablations— single-plane (typical Clos tier2, Fig 12a/13a/14a),
//                   single-ToR access (Fig 18 baseline), rail-only tier2
//                   (Table 4).
//  * DCN+         — Appendix C: the previous-generation 3-tier Clos with
//                   dual-ToR, 128-GPU segments, 4 segments per Pod.
//  * Fat tree     — classic k-ary (Table 1 comparator).
//  * Rail-only    — Wang et al.: per-rail switches only, no Agg/Core tier;
//                   cross-rail traffic rides NVSwitch inside the host.
//  * RailX-lite   — reconfigurable rail wiring: per-(group, rail) ToRs plus
//                   an optical-circuit tier with a rotor epoch schedule.
//  * UB-Mesh-lite — 2D full-mesh (HyperX-style) switch grid, single-port
//                   hosts attached to their local switch.
//
// All builders take scale knobs so tests can construct tiny instances and
// benches paper-scale ones; wiring *shape* is identical at every scale.
// Link speeds are not a knob: every fabric wires with `kLinkSpeeds`. Every
// fabric but the fat tree (one GPU per host) has the same host, eight GPUs
// on one NVSwitch, each with a PCIe NIC wired single- or dual-port to ToRs;
// each builder adds its hosts through `add_host` (topo/host_wiring.h), and
// the fat tree, frontend and storage attachments wire their NICs through
// `wire_nic`.
#pragma once

#include "topo/cluster.h"

namespace hpn::topo {

/// Physical channel properties. Every builder, the frontend network and
/// the storage attachments wire with the one set `kLinkSpeeds`; the fat
/// tree uses its `fabric` speed for every link.
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

inline constexpr LinkSpeeds kLinkSpeeds{};

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
  /// Also the Core count per plane, one uplink per Core: vs 120 downlinks
  /// -> 15:1 (§6.2).
  int agg_core_uplinks = 8;

  /// Full production scale: 15 segments x (128+8) hosts = 15360 active GPUs.
  static HpnConfig paper_pod();
  /// A small instance for tests: shape-identical, minutes -> milliseconds.
  static HpnConfig tiny();
};

Cluster build_hpn(const HpnConfig& cfg);

struct DcnPlusConfig {
  int pods = 1;
  int segments_per_pod = 4;
  int hosts_per_segment = 16;         ///< 128 GPUs per segment.
  int gpus_per_host = 8;
  bool dual_tor = true;
  int aggs_per_pod = 8;
  int links_per_tor_agg = 8;          ///< ToR: 8 aggs x 8 links = 64x400G up.
  int agg_core_uplinks = 64;          ///< Full bisection (1:1), over 16 Cores.

  static DcnPlusConfig paper_pod();
};

Cluster build_dcn_plus(const DcnPlusConfig& cfg);

struct FatTreeConfig {
  int k = 4;                          ///< Even; hosts = k^3/4.
};

Cluster build_fat_tree(const FatTreeConfig& cfg);

/// Rail-only (Wang et al., "Rail-only: A Low-Cost ... Network for LLMs"):
/// each rail gets its own switch pair spanning every host; there is no Agg
/// or Core tier at all. Cross-rail pairs are unreachable over the backend
/// network by design — collectives must keep traffic rail-local (DP rings)
/// or forward through NVSwitch.
struct RailOnlyConfig {
  int hosts = 8;
  int gpus_per_host = 8;           ///< = rail count.
  bool dual_tor = true;            ///< Keep HPN's dual-ToR access for parity.
};

Cluster build_rail_only(const RailOnlyConfig& cfg);

/// RailX-lite: hosts are split into `groups`; each (group, rail) pair gets
/// one single-plane ToR. Same-rail ToRs across groups are joined by an
/// optical-circuit tier: one circuit link per unordered group pair and
/// rail, with a rotor schedule of `groups - 1` epochs (epoch e keeps the
/// difference-class min(e+1, groups-(e+1)) links up). The builder leaves
/// epoch 0 (the ring) up; `Cluster::circuits` holds the full schedule.
struct RailXConfig {
  int groups = 5;                  ///< >= 2; odd keeps every epoch connected.
  int hosts_per_group = 2;
  int gpus_per_host = 8;
};

Cluster build_railx(const RailXConfig& cfg);

/// UB-Mesh-lite: a rows x cols grid of switches, full-mesh wired along each
/// row and each column (2D HyperX). Hosts attach single-port to their local
/// switch; every host pair is reachable in <= 2 switch-switch hops.
struct UbMeshConfig {
  int rows = 2;
  int cols = 2;
  int hosts_per_switch = 2;
  int gpus_per_host = 8;
};

Cluster build_ubmesh(const UbMeshConfig& cfg);

}  // namespace hpn::topo
