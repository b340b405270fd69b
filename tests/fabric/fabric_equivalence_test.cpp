// Differential suite pinning the Fabric strategy refactor (ISSUE 6): the
// pre-refactor HPN / DCN+ / fat-tree builders are preserved verbatim in
// tests/support/reference_builders.h, and the production strategy path
// (`fabric::fabric_or_throw(name).build(scale)`) must reproduce their
// output *byte-for-byte* — topology exports, per-node FIBs (ECMP groups),
// and hashed path traces — across a seed-derived scale grid.
//
// If any of these assertions fire, the refactor changed observable HPN
// behavior and every golden in the repo is suspect.
#include "fabric/fabric.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "routing/router.h"
#include "tests/support/export.h"
#include "tests/support/reference_builders.h"
#include "topo/builders.h"

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

/// Byte-identical exports plus structural index equality.
void expect_identical_clusters(const topo::Cluster& ref, const topo::Cluster& got) {
  EXPECT_EQ(ref.arch, got.arch);
  EXPECT_EQ(topo::to_json(ref), topo::to_json(got));
  EXPECT_EQ(topo::to_dot(ref), topo::to_dot(got));
  EXPECT_EQ(ref.tors, got.tors);
  EXPECT_EQ(ref.aggs, got.aggs);
  EXPECT_EQ(ref.cores, got.cores);
  EXPECT_EQ(ref.gpus_per_host, got.gpus_per_host);
  ASSERT_EQ(ref.hosts.size(), got.hosts.size());
  for (std::size_t i = 0; i < ref.hosts.size(); ++i) {
    const topo::Host& a = ref.hosts[i];
    const topo::Host& b = got.hosts[i];
    EXPECT_EQ(a.gpus, b.gpus);
    EXPECT_EQ(a.gpu_nvlink, b.gpu_nvlink);
    EXPECT_EQ(a.gpu_pcie, b.gpu_pcie);
    ASSERT_EQ(a.nics.size(), b.nics.size());
    for (std::size_t r = 0; r < a.nics.size(); ++r) {
      EXPECT_EQ(a.nics[r].nic, b.nics[r].nic);
      EXPECT_EQ(a.nics[r].ports, b.nics[r].ports);
      EXPECT_EQ(a.nics[r].tor, b.nics[r].tor);
      EXPECT_EQ(a.nics[r].access, b.nics[r].access);
    }
  }
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

TEST(FabricEquivalence, HpnMatchesPreRefactorBuilder) {
  const Fabric& hpn = fabric_or_throw("hpn");
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Grid g = grid_for(seed);
    // Mirror of HpnFabric's scale mapping, applied to the *reference* copy.
    topo::HpnConfig cfg = topo::HpnConfig::tiny();
    cfg.pods = g.pods;
    cfg.segments_per_pod = g.segments;
    cfg.hosts_per_segment = g.hosts;
    cfg.gpus_per_host = g.gpus;
    const topo::Cluster ref = reference::reference_build_hpn(cfg);
    const topo::Cluster got = hpn.build(scale_of(g));
    expect_equivalent(ref, got, hpn.hash_policy(), seed);
  }
}

TEST(FabricEquivalence, DcnPlusMatchesPreRefactorBuilder) {
  const Fabric& dcn = fabric_or_throw("dcn+");
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Grid g = grid_for(seed);
    topo::DcnPlusConfig cfg;
    cfg.pods = g.pods;
    cfg.segments_per_pod = g.segments;
    cfg.hosts_per_segment = g.hosts;
    cfg.gpus_per_host = g.gpus;
    const topo::Cluster ref = reference::reference_build_dcn_plus(cfg);
    const topo::Cluster got = dcn.build(scale_of(g));
    expect_equivalent(ref, got, dcn.hash_policy(), seed);
  }
}

TEST(FabricEquivalence, FatTreeMatchesPreRefactorBuilder) {
  const Fabric& ft = fabric_or_throw("fat-tree");
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Grid g = grid_for(seed);
    topo::FatTreeConfig cfg;
    cfg.k = 2 * std::max(2, g.segments);
    const topo::Cluster ref = reference::reference_build_fat_tree(cfg);
    const topo::Cluster got = ft.build(scale_of(g));
    expect_equivalent(ref, got, ft.hash_policy(), seed);
  }
}

TEST(FabricEquivalence, PaperRadixExportIsByteIdentical) {
  // The strategies above build at the tiny test radix; the paper-scale
  // radix (HpnConfig{} defaults: 60 ToR uplinks, 60 aggs per plane) must
  // match the pre-refactor builder too. Kept to a 2-segment slice so the
  // byte comparison stays cheap.
  topo::HpnConfig cfg;  // Default = paper radix.
  cfg.pods = 1;
  cfg.segments_per_pod = 2;
  cfg.hosts_per_segment = 8;
  cfg.gpus_per_host = 8;
  const topo::Cluster ref = reference::reference_build_hpn(cfg);
  const topo::Cluster got = topo::build_hpn(cfg);
  EXPECT_EQ(topo::to_json(ref), topo::to_json(got));
  EXPECT_EQ(topo::to_dot(ref), topo::to_dot(got));
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
