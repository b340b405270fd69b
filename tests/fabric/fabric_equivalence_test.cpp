// Differential suite pinning the topology builders: the pre-refactor
// builders of all six fabrics and both storage attachments are preserved
// verbatim in tests/support/reference_builders.h, and the production path
// (`fabric::fabric_or_throw(name).build(scale)`, the builders called
// directly, attach_frontend and attach_backend_storage) must reproduce
// their output exactly — every node and link field (kind, name, location,
// capacity and latency bit for bit, ports, adjacency), every Host index,
// the switch lists and the circuit schedule, topology exports, per-node
// FIBs (ECMP groups), and hashed path traces — across a seed-derived scale
// grid and the HPN ablation knobs.
//
// If any of these assertions fire, a builder changed observable behavior
// and every golden in the repo is suspect.
#include "fabric/fabric.h"

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "routing/router.h"
#include "tests/support/export.h"
#include "tests/support/reference_builders.h"
#include "topo/builders.h"
#include "topo/frontend.h"

namespace hpn::fabric {
namespace {

constexpr std::array<std::uint64_t, 6> kSeeds{11, 23, 37, 41, 59, 101};

/// Seed-derived scale grid point. Small enough that the full FIB
/// cross-product stays cheap, varied enough to cover single/multi segment,
/// single/multi pod (tier3), and several rail counts.
struct Grid {
  int pods = 1;
  int segments = 1;
  int hosts = 1;
  int gpus = 1;
};

Grid grid_for(std::uint64_t seed) {
  Rng rng{seed};
  Grid g;
  g.pods = rng.bernoulli(0.33) ? 2 : 1;
  g.segments = 1 + static_cast<int>(rng.uniform_index(3));
  g.hosts = 1 + static_cast<int>(rng.uniform_index(4));
  g.gpus = std::array{1, 2, 4}[rng.uniform_index(3)];
  return g;
}

FabricScale scale_of(const Grid& g) {
  FabricScale s;
  s.pods = g.pods;
  s.segments_per_pod = g.segments;
  s.hosts_per_segment = g.hosts;
  s.gpus_per_host = g.gpus;
  return s;
}

std::vector<NodeId> nic_endpoints(const topo::Cluster& c) {
  std::vector<NodeId> nics;
  for (const topo::Host& h : c.hosts) {
    for (const topo::NicAttachment& att : h.nics) nics.push_back(att.nic);
  }
  return nics;
}

/// Every field of a node, exactly, plus its adjacency and port count.
std::string describe_node(const topo::Topology& t, const topo::Node& n) {
  std::ostringstream os;
  os << n.id.value() << ' ' << topo::to_string(n.kind) << ' ' << n.name << " pod=" << n.loc.pod
     << " seg=" << n.loc.segment << " plane=" << n.loc.plane << " rail=" << n.loc.rail
     << " host=" << n.loc.host << " local=" << n.loc.local << " ports=" << t.port_count(n.id)
     << " out=";
  for (const LinkId l : t.out_links(n.id)) os << l.value() << ',';
  return os.str();
}

/// Every field of a link, exactly: capacity as a hex float, latency in ns.
std::string describe_link(const topo::Link& l) {
  std::ostringstream os;
  os << l.id.value() << " rev=" << l.reverse.value() << ' ' << l.src.value() << "->"
     << l.dst.value() << " kind=" << static_cast<int>(l.kind) << " bps=" << std::hexfloat
     << l.capacity.as_bits_per_sec() << std::defaultfloat
     << " ns=" << l.latency.as_nanos() << " up=" << l.up << " port=" << l.src_port << '/'
     << l.dst_port;
  return os.str();
}

void describe_attachment(std::ostringstream& os, const topo::NicAttachment& att) {
  os << " nic=" << att.nic.value() << "/" << att.ports << " tor=" << att.tor[0].value() << ','
     << att.tor[1].value() << " access=" << att.access[0].value() << ','
     << att.access[1].value();
}

/// Every field of a host, plus where the GPU index places its GPUs.
std::string describe_host(const topo::Cluster& c, const topo::Host& h) {
  std::ostringstream os;
  os << "index=" << h.index << " pod=" << h.pod << " seg=" << h.segment
     << " backup=" << h.backup << " nvsw=" << h.nvswitch.value()
     << " fnic=" << h.frontend_nic.value() << " gpus=";
  for (const NodeId g : h.gpus) {
    const topo::GpuRef ref = c.locate_gpu(g);
    os << g.value() << '@' << ref.host << '.' << ref.rail << ',';
  }
  os << " nvlink=";
  for (const LinkId l : h.gpu_nvlink) os << l.value() << ',';
  os << " pcie=";
  for (const LinkId l : h.gpu_pcie) os << l.value() << ',';
  for (const topo::NicAttachment& att : h.nics) describe_attachment(os, att);
  return os.str();
}

std::string describe_storage(const topo::StorageHost& sh) {
  std::ostringstream os;
  os << "host=" << sh.host.value() << " backend=" << sh.on_backend;
  describe_attachment(os, sh.nic);
  return os.str();
}

/// Equal line lists; on a mismatch, reports the first divergent line.
void expect_same_lines(const std::vector<std::string>& ref, const std::vector<std::string>& got,
                       const char* what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  std::size_t diffs = 0;
  std::size_t first = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (ref[i] == got[i]) continue;
    if (diffs++ == 0) first = i;
  }
  EXPECT_EQ(diffs, 0u) << what << ": first divergence at #" << first << "\n  reference: "
                       << (diffs ? ref[first] : "") << "\n  got:       "
                       << (diffs ? got[first] : "");
}

/// Byte-identical exports plus exact equality of every node, link, host,
/// switch list and circuit epoch.
void expect_identical_clusters(const topo::Cluster& ref, const topo::Cluster& got) {
  EXPECT_EQ(ref.arch, got.arch);
  EXPECT_EQ(topo::to_json(ref), topo::to_json(got));
  EXPECT_EQ(topo::to_dot(ref), topo::to_dot(got));
  EXPECT_EQ(ref.tors, got.tors);
  EXPECT_EQ(ref.aggs, got.aggs);
  EXPECT_EQ(ref.cores, got.cores);
  EXPECT_EQ(ref.frontend_tors, got.frontend_tors);
  EXPECT_EQ(ref.frontend_aggs, got.frontend_aggs);
  EXPECT_EQ(ref.circuits.epoch_links, got.circuits.epoch_links);
  EXPECT_EQ(ref.gpus_per_host, got.gpus_per_host);
  EXPECT_EQ(ref.pods, got.pods);
  EXPECT_EQ(ref.segments_per_pod, got.segments_per_pod);

  std::vector<std::string> ref_lines, got_lines;
  for (const topo::Node& n : ref.topo.nodes()) ref_lines.push_back(describe_node(ref.topo, n));
  for (const topo::Node& n : got.topo.nodes()) got_lines.push_back(describe_node(got.topo, n));
  expect_same_lines(ref_lines, got_lines, "nodes");
  ref_lines.clear();
  got_lines.clear();
  for (const topo::Link& l : ref.topo.links()) ref_lines.push_back(describe_link(l));
  for (const topo::Link& l : got.topo.links()) got_lines.push_back(describe_link(l));
  expect_same_lines(ref_lines, got_lines, "links");
  ref_lines.clear();
  got_lines.clear();
  for (const topo::Host& h : ref.hosts) ref_lines.push_back(describe_host(ref, h));
  for (const topo::Host& h : got.hosts) got_lines.push_back(describe_host(got, h));
  expect_same_lines(ref_lines, got_lines, "hosts");
}

void expect_identical_storage(const std::vector<topo::StorageHost>& ref,
                              const std::vector<topo::StorageHost>& got) {
  std::vector<std::string> ref_lines, got_lines;
  for (const topo::StorageHost& sh : ref) ref_lines.push_back(describe_storage(sh));
  for (const topo::StorageHost& sh : got) got_lines.push_back(describe_storage(sh));
  expect_same_lines(ref_lines, got_lines, "storage hosts");
}

/// Full FIB equality: at every switch and NIC, toward every NIC, the ECMP
/// group (ordered link set) must match.
void expect_identical_fibs(const topo::Cluster& ref, const topo::Cluster& got,
                           const routing::HashConfig& hash) {
  routing::Router rref{ref.topo, hash};
  routing::Router rgot{got.topo, hash};
  const std::vector<NodeId> dsts = nic_endpoints(ref);
  for (const topo::Node& n : ref.topo.nodes()) {
    const bool vantage = n.kind == topo::NodeKind::kTor || n.kind == topo::NodeKind::kAgg ||
                         n.kind == topo::NodeKind::kCore || n.kind == topo::NodeKind::kNic;
    if (!vantage) continue;
    for (const NodeId dst : dsts) {
      EXPECT_EQ(rref.ecmp_links(n.id, dst), rgot.ecmp_links(n.id, dst))
          << "FIB divergence at " << n.name;
    }
  }
}

/// Hashed path traces for seeded five-tuples between seeded NIC pairs.
void expect_identical_traces(const topo::Cluster& ref, const topo::Cluster& got,
                             const routing::HashConfig& hash, std::uint64_t seed) {
  routing::Router rref{ref.topo, hash};
  routing::Router rgot{got.topo, hash};
  const std::vector<NodeId> nics = nic_endpoints(ref);
  if (nics.size() < 2) return;
  Rng rng{seed ^ 0xA5A5A5A5ULL};
  for (int i = 0; i < 200; ++i) {
    const auto a = rng.uniform_index(nics.size());
    auto b = rng.uniform_index(nics.size());
    if (b == a) b = (b + 1) % nics.size();
    routing::FiveTuple ft;
    ft.src_ip = static_cast<std::uint32_t>(rng.next_u64());
    ft.dst_ip = static_cast<std::uint32_t>(rng.next_u64());
    ft.src_port = static_cast<std::uint16_t>(rng.next_u64());
    const routing::Path pref = rref.trace(nics[a], nics[b], ft);
    const routing::Path pgot = rgot.trace(nics[a], nics[b], ft);
    EXPECT_EQ(pref.links, pgot.links) << "trace divergence, draw " << i;
  }
}

void expect_equivalent(const topo::Cluster& ref, const topo::Cluster& got,
                       const routing::HashConfig& hash, std::uint64_t seed) {
  expect_identical_clusters(ref, got);
  expect_identical_fibs(ref, got, hash);
  expect_identical_traces(ref, got, hash, seed);
}

/// The reference build of each registry strategy: a mirror of the scale
/// mapping in src/fabric/fabric.cpp, applied to the reference copies.
topo::Cluster reference_build(std::string_view fabric, const FabricScale& s) {
  if (fabric == "hpn") {
    reference::HpnConfig cfg = reference::HpnConfig::tiny();
    cfg.pods = s.pods;
    cfg.segments_per_pod = s.segments_per_pod;
    cfg.hosts_per_segment = s.hosts_per_segment;
    cfg.gpus_per_host = s.gpus_per_host;
    return reference::reference_build_hpn(cfg);
  }
  if (fabric == "dcn+") {
    reference::DcnPlusConfig cfg;
    cfg.pods = s.pods;
    cfg.segments_per_pod = s.segments_per_pod;
    cfg.hosts_per_segment = s.hosts_per_segment;
    cfg.gpus_per_host = s.gpus_per_host;
    return reference::reference_build_dcn_plus(cfg);
  }
  if (fabric == "fat-tree") {
    reference::FatTreeConfig cfg;
    cfg.k = 2 * std::max(2, s.segments_per_pod);
    return reference::reference_build_fat_tree(cfg);
  }
  if (fabric == "rail-only") {
    reference::RailOnlyConfig cfg;
    cfg.hosts = s.segments_per_pod * s.hosts_per_segment;
    cfg.gpus_per_host = s.gpus_per_host;
    return reference::reference_build_rail_only(cfg);
  }
  if (fabric == "railx-lite") {
    reference::RailXConfig cfg;
    cfg.groups = std::max(2, s.segments_per_pod);
    cfg.hosts_per_group = s.hosts_per_segment;
    cfg.gpus_per_host = s.gpus_per_host;
    return reference::reference_build_railx(cfg);
  }
  HPN_CHECK_MSG(fabric == "ubmesh-lite", "no reference build for " << fabric);
  reference::UbMeshConfig cfg;
  cfg.rows = 2;
  cfg.cols = std::max(1, s.segments_per_pod);
  cfg.hosts_per_switch = s.hosts_per_segment;
  cfg.gpus_per_host = s.gpus_per_host;
  return reference::reference_build_ubmesh(cfg);
}

/// The strategy build of `name` over the seed grid, against its reference.
void expect_fabric_matches_reference(const char* name) {
  const Fabric& fabric = fabric_or_throw(name);
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FabricScale scale = scale_of(grid_for(seed));
    const topo::Cluster ref = reference_build(name, scale);
    const topo::Cluster got = fabric.build(scale);
    expect_equivalent(ref, got, fabric.hash_policy(), seed);
  }
}

TEST(FabricEquivalence, HpnMatchesPreRefactorBuilder) {
  expect_fabric_matches_reference("hpn");
}

TEST(FabricEquivalence, DcnPlusMatchesPreRefactorBuilder) {
  expect_fabric_matches_reference("dcn+");
}

TEST(FabricEquivalence, FatTreeMatchesPreRefactorBuilder) {
  expect_fabric_matches_reference("fat-tree");
}

TEST(FabricEquivalence, RailOnlyMatchesPreRefactorBuilder) {
  expect_fabric_matches_reference("rail-only");
}

TEST(FabricEquivalence, RailXMatchesPreRefactorBuilder) {
  expect_fabric_matches_reference("railx-lite");
}

TEST(FabricEquivalence, UbMeshMatchesPreRefactorBuilder) {
  expect_fabric_matches_reference("ubmesh-lite");
}

/// One HPN shape, applied to both the reference and the production config
/// (the fields both carry).
struct HpnShape {
  int pods = 1;
  int segments = 2;
  int hosts = 4;
  int backup = 0;
  int gpus = 8;
  bool dual_tor = true;
  bool dual_plane = true;
  bool rail_optimized = true;
  bool rail_only_tier2 = false;
  int tor_uplinks = 4;
  int aggs_per_plane = 4;
  int agg_core_uplinks = 2;
};

template <class Config>
Config hpn_config(const HpnShape& s) {
  Config cfg;
  cfg.pods = s.pods;
  cfg.segments_per_pod = s.segments;
  cfg.hosts_per_segment = s.hosts;
  cfg.backup_hosts_per_segment = s.backup;
  cfg.gpus_per_host = s.gpus;
  cfg.dual_tor = s.dual_tor;
  cfg.dual_plane = s.dual_plane;
  cfg.rail_optimized = s.rail_optimized;
  cfg.rail_only_tier2 = s.rail_only_tier2;
  cfg.tor_uplinks = s.tor_uplinks;
  cfg.aggs_per_plane = s.aggs_per_plane;
  cfg.agg_core_uplinks = s.agg_core_uplinks;
  return cfg;
}

TEST(FabricEquivalence, HpnAblationsMatchPreRefactorBuilder) {
  // Every HPN knob a bench or the scenario layer turns, over the seed grid:
  // single-ToR access, single-plane tier2, shared (not rail-optimized) ToRs,
  // rail-only tier2 and backup hosts; multi-pod grid points wire tier3.
  enum Variant { kSingleTor, kSinglePlane, kSharedTors, kRailOnlyTier2, kBackup, kVariants };
  for (const std::uint64_t seed : kSeeds) {
    const Grid g = grid_for(seed);
    for (int v = 0; v < kVariants; ++v) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " variant " + std::to_string(v));
      HpnShape s;
      s.pods = g.pods;
      s.segments = g.segments;
      s.hosts = g.hosts;
      s.gpus = g.gpus;
      s.dual_tor = v != kSingleTor;
      s.dual_plane = v != kSinglePlane;
      s.rail_optimized = v != kSharedTors;
      s.rail_only_tier2 = v == kRailOnlyTier2;
      s.backup = v == kBackup ? 2 : 0;
      const topo::Cluster ref =
          reference::reference_build_hpn(hpn_config<reference::HpnConfig>(s));
      const topo::Cluster got = topo::build_hpn(hpn_config<topo::HpnConfig>(s));
      expect_equivalent(ref, got, routing::HashConfig{}, seed);
    }
  }
}

TEST(FabricEquivalence, HpnMultiPodCoreWiringMatchesPreRefactorBuilder) {
  // Tier3 at several core counts and pod counts, in both plane modes and
  // with rail-only tier2 groups feeding the cores.
  const std::array<HpnShape, 5> shapes{{
      {.pods = 2, .segments = 2, .hosts = 2, .gpus = 2, .agg_core_uplinks = 3},
      {.pods = 3, .segments = 1, .hosts = 1, .gpus = 4, .agg_core_uplinks = 2},
      {.pods = 2, .segments = 1, .hosts = 2, .backup = 1, .gpus = 2, .dual_plane = false,
       .agg_core_uplinks = 4},
      {.pods = 2, .segments = 2, .hosts = 1, .gpus = 2, .rail_only_tier2 = true,
       .tor_uplinks = 2, .aggs_per_plane = 2, .agg_core_uplinks = 2},
      {.pods = 2, .segments = 1, .hosts = 2, .gpus = 2, .dual_tor = false,
       .rail_optimized = false, .agg_core_uplinks = 1},
  }};
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    SCOPED_TRACE("shape " + std::to_string(i));
    const topo::Cluster ref =
        reference::reference_build_hpn(hpn_config<reference::HpnConfig>(shapes[i]));
    const topo::Cluster got = topo::build_hpn(hpn_config<topo::HpnConfig>(shapes[i]));
    ASSERT_FALSE(got.cores.empty());
    expect_equivalent(ref, got, routing::HashConfig{}, 7 + i);
  }
}

TEST(FabricEquivalence, PaperRadixExportIsByteIdentical) {
  // The strategies above build at the tiny test radix; the paper-scale
  // radix (HpnConfig{} defaults: 60 ToR uplinks, 60 aggs per plane) must
  // match the pre-refactor builder too. Kept to a 2-segment slice so the
  // byte comparison stays cheap.
  reference::HpnConfig ref_cfg;  // Default = paper radix.
  ref_cfg.pods = 1;
  ref_cfg.segments_per_pod = 2;
  ref_cfg.hosts_per_segment = 8;
  ref_cfg.gpus_per_host = 8;
  topo::HpnConfig cfg;
  cfg.pods = ref_cfg.pods;
  cfg.segments_per_pod = ref_cfg.segments_per_pod;
  cfg.hosts_per_segment = ref_cfg.hosts_per_segment;
  cfg.gpus_per_host = ref_cfg.gpus_per_host;
  const topo::Cluster ref = reference::reference_build_hpn(ref_cfg);
  const topo::Cluster got = topo::build_hpn(cfg);
  expect_identical_clusters(ref, got);
}

TEST(FabricEquivalence, DcnPlusShapesMatchPreRefactorBuilder) {
  // Single-ToR access, the paper Pod, and two Pods through the 16 cores.
  for (int v = 0; v < 3; ++v) {
    SCOPED_TRACE("variant " + std::to_string(v));
    reference::DcnPlusConfig ref_cfg;
    if (v == 0) {
      ref_cfg.segments_per_pod = 2;
      ref_cfg.hosts_per_segment = 2;
      ref_cfg.gpus_per_host = 2;
      ref_cfg.dual_tor = false;
    }
    if (v == 2) {
      ref_cfg.pods = 2;
      ref_cfg.segments_per_pod = 1;
      ref_cfg.hosts_per_segment = 1;
    }
    topo::DcnPlusConfig cfg;
    cfg.pods = ref_cfg.pods;
    cfg.segments_per_pod = ref_cfg.segments_per_pod;
    cfg.hosts_per_segment = ref_cfg.hosts_per_segment;
    cfg.gpus_per_host = ref_cfg.gpus_per_host;
    cfg.dual_tor = ref_cfg.dual_tor;
    const topo::Cluster ref = reference::reference_build_dcn_plus(ref_cfg);
    const topo::Cluster got = topo::build_dcn_plus(cfg);
    expect_identical_clusters(ref, got);
  }
}

TEST(FabricEquivalence, ZooShapesMatchPreRefactorBuilders) {
  // The grids the fabric property tests build, including single-ToR
  // rail-only and the even/odd RailX group counts.
  for (const auto& [hosts, gpus, dual_tor] :
       {std::tuple{4, 8, true}, {8, 4, true}, {3, 2, false}, {1, 8, true}}) {
    SCOPED_TRACE("rail-only " + std::to_string(hosts) + "x" + std::to_string(gpus));
    reference::RailOnlyConfig ref_cfg;
    ref_cfg.hosts = hosts;
    ref_cfg.gpus_per_host = gpus;
    ref_cfg.dual_tor = dual_tor;
    topo::RailOnlyConfig cfg;
    cfg.hosts = hosts;
    cfg.gpus_per_host = gpus;
    cfg.dual_tor = dual_tor;
    expect_identical_clusters(reference::reference_build_rail_only(ref_cfg),
                              topo::build_rail_only(cfg));
  }
  for (int groups = 2; groups <= 7; ++groups) {
    SCOPED_TRACE("railx groups " + std::to_string(groups));
    reference::RailXConfig ref_cfg;
    ref_cfg.groups = groups;
    topo::RailXConfig cfg;
    cfg.groups = groups;
    expect_identical_clusters(reference::reference_build_railx(ref_cfg), topo::build_railx(cfg));
  }
  for (const auto& [rows, cols] :
       {std::pair{1, 2}, {2, 2}, {2, 3}, {2, 4}, {3, 3}}) {
    SCOPED_TRACE("ubmesh " + std::to_string(rows) + "x" + std::to_string(cols));
    reference::UbMeshConfig ref_cfg;
    ref_cfg.rows = rows;
    ref_cfg.cols = cols;
    topo::UbMeshConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    expect_identical_clusters(reference::reference_build_ubmesh(ref_cfg), topo::build_ubmesh(cfg));
  }
}

/// Storage attachment on every registry fabric over the seed grid: the
/// frontend network (§8) and the rejected backend placement (§10).
template <class RefAttach, class Attach>
void expect_storage_matches_reference(RefAttach ref_attach, Attach attach) {
  for (const Fabric* fabric : all_fabrics()) {
    for (const std::uint64_t seed : kSeeds) {
      SCOPED_TRACE(std::string{fabric->name()} + " seed " + std::to_string(seed));
      const FabricScale scale = scale_of(grid_for(seed));
      topo::Cluster ref = reference_build(fabric->name(), scale);
      topo::Cluster got = fabric->build(scale);
      const std::vector<topo::StorageHost> ref_storage = ref_attach(ref);
      const std::vector<topo::StorageHost> got_storage = attach(got);
      expect_identical_clusters(ref, got);
      expect_identical_storage(ref_storage, got_storage);
      expect_identical_traces(ref, got, fabric->hash_policy(), seed);
    }
  }
}

TEST(FabricEquivalence, FrontendMatchesPreRefactorAttach) {
  expect_storage_matches_reference(
      [](topo::Cluster& c) { return reference::reference_attach_frontend(c); },
      [](topo::Cluster& c) { return topo::attach_frontend(c); });
}

TEST(FabricEquivalence, BackendStorageMatchesPreRefactorAttach) {
  expect_storage_matches_reference(
      [](topo::Cluster& c) { return reference::reference_attach_backend_storage(c, 8); },
      [](topo::Cluster& c) { return topo::attach_backend_storage(c, 8); });
}

TEST(FabricEquivalence, LegacyFabricsKeepDefaultHashPolicy) {
  // The pre-refactor stack always routed with HashConfig{}; the legacy
  // strategies must report exactly that, or every golden trace shifts.
  const routing::HashConfig def{};
  for (const char* name : {"hpn", "dcn+", "fat-tree"}) {
    const routing::HashConfig hc = fabric_or_throw(name).hash_policy();
    EXPECT_EQ(hc.seeds, def.seeds) << name;
    EXPECT_EQ(hc.per_port_at_core, def.per_port_at_core) << name;
    EXPECT_EQ(hc.salt, def.salt) << name;
  }
}

TEST(FabricEquivalence, RegistryKnowsAllSixFabrics) {
  EXPECT_EQ(all_fabrics().size(), 6u);
  for (const char* name :
       {"hpn", "dcn+", "fat-tree", "rail-only", "railx-lite", "ubmesh-lite"}) {
    EXPECT_NE(find_fabric(name), nullptr) << name;
  }
  EXPECT_EQ(find_fabric("clos-9000"), nullptr);
  EXPECT_THROW(fabric_or_throw("clos-9000"), ConfigError);
}

}  // namespace
}  // namespace hpn::fabric
