#include "fabric/fabric.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "common/check.h"
#include "topo/builders.h"

namespace hpn::fabric {
namespace {

// ---- HPN (the paper) -------------------------------------------------------
class HpnFabric final : public Fabric {
 public:
  [[nodiscard]] std::string_view name() const override { return "hpn"; }
  [[nodiscard]] std::string_view description() const override {
    return "dual-ToR dual-plane rail-optimized 2-tier (the paper)";
  }
  [[nodiscard]] topo::Cluster build(const FabricScale& scale) const override {
    topo::HpnConfig cfg = topo::HpnConfig::tiny();
    cfg.pods = scale.pods;
    cfg.segments_per_pod = scale.segments_per_pod;
    cfg.hosts_per_segment = scale.hosts_per_segment;
    cfg.gpus_per_host = scale.gpus_per_host;
    return topo::build_hpn(cfg);
  }
  [[nodiscard]] routing::HashConfig hash_policy() const override {
    // The production default: the polarization story (§2.2) and its §7
    // remedies are studied relative to this baseline config.
    return {};
  }
};

// ---- DCN+ (Appendix C) -----------------------------------------------------
class DcnPlusFabric final : public Fabric {
 public:
  [[nodiscard]] std::string_view name() const override { return "dcn+"; }
  [[nodiscard]] std::string_view description() const override {
    return "previous-generation 3-tier Clos, dual-ToR, not rail-optimized";
  }
  [[nodiscard]] topo::Cluster build(const FabricScale& scale) const override {
    topo::DcnPlusConfig cfg;
    cfg.pods = scale.pods;
    cfg.segments_per_pod = scale.segments_per_pod;
    cfg.hosts_per_segment = scale.hosts_per_segment;
    cfg.gpus_per_host = scale.gpus_per_host;
    return topo::build_dcn_plus(cfg);
  }
  [[nodiscard]] routing::HashConfig hash_policy() const override { return {}; }
};

// ---- Fat tree (Table 1 comparator) ----------------------------------------
class FatTreeFabric final : public Fabric {
 public:
  [[nodiscard]] std::string_view name() const override { return "fat-tree"; }
  [[nodiscard]] std::string_view description() const override {
    return "classic k-ary fat tree, single-port single-GPU hosts";
  }
  [[nodiscard]] topo::Cluster build(const FabricScale& scale) const override {
    // segments_per_pod plays k/2 (the builder's own per-pod segment count).
    topo::FatTreeConfig cfg;
    cfg.k = 2 * std::max(2, scale.segments_per_pod);
    return topo::build_fat_tree(cfg);
  }
  [[nodiscard]] routing::HashConfig hash_policy() const override { return {}; }
};

// ---- Rail-only (Wang et al.) ----------------------------------------------
class RailOnlyFabric final : public Fabric {
 public:
  [[nodiscard]] std::string_view name() const override { return "rail-only"; }
  [[nodiscard]] std::string_view description() const override {
    return "per-rail switches only, no aggregation tier (Wang et al.)";
  }
  [[nodiscard]] topo::Cluster build(const FabricScale& scale) const override {
    topo::RailOnlyConfig cfg;
    cfg.hosts = scale.segments_per_pod * scale.hosts_per_segment;
    cfg.gpus_per_host = scale.gpus_per_host;
    return topo::build_rail_only(cfg);
  }
  [[nodiscard]] routing::HashConfig hash_policy() const override {
    // One switch tier, no cascade to polarize: run decorrelated seeds.
    routing::HashConfig cfg;
    cfg.seeds = routing::SeedPolicy::kPerSwitch;
    return cfg;
  }
};

// ---- RailX-lite ------------------------------------------------------------
class RailXFabric final : public Fabric {
 public:
  [[nodiscard]] std::string_view name() const override { return "railx-lite"; }
  [[nodiscard]] std::string_view description() const override {
    return "grouped rail switches over a rotor-scheduled optical circuit tier";
  }
  [[nodiscard]] topo::Cluster build(const FabricScale& scale) const override {
    topo::RailXConfig cfg;
    cfg.groups = std::max(2, scale.segments_per_pod);
    cfg.hosts_per_group = scale.hosts_per_segment;
    cfg.gpus_per_host = scale.gpus_per_host;
    return topo::build_railx(cfg);
  }
  [[nodiscard]] routing::HashConfig hash_policy() const override {
    routing::HashConfig cfg;
    cfg.seeds = routing::SeedPolicy::kPerSwitch;
    return cfg;
  }
  [[nodiscard]] Duration reconfig_period() const override {
    // OCS dwell time: long against packet timescales, short against an
    // iteration, so a training run sees several rewirings.
    return Duration::millis(50);
  }
};

// ---- UB-Mesh-lite ----------------------------------------------------------
class UbMeshFabric final : public Fabric {
 public:
  [[nodiscard]] std::string_view name() const override { return "ubmesh-lite"; }
  [[nodiscard]] std::string_view description() const override {
    return "2D full-mesh (HyperX-style) switch grid, single-port hosts";
  }
  [[nodiscard]] topo::Cluster build(const FabricScale& scale) const override {
    topo::UbMeshConfig cfg;
    cfg.rows = 2;
    cfg.cols = std::max(1, scale.segments_per_pod);
    cfg.hosts_per_switch = scale.hosts_per_segment;
    cfg.gpus_per_host = scale.gpus_per_host;
    return topo::build_ubmesh(cfg);
  }
  [[nodiscard]] routing::HashConfig hash_policy() const override {
    routing::HashConfig cfg;
    cfg.seeds = routing::SeedPolicy::kPerSwitch;
    return cfg;
  }
};

const std::vector<std::unique_ptr<Fabric>>& registry() {
  static const auto* fabrics = [] {
    auto* v = new std::vector<std::unique_ptr<Fabric>>;
    v->push_back(std::make_unique<HpnFabric>());
    v->push_back(std::make_unique<DcnPlusFabric>());
    v->push_back(std::make_unique<FatTreeFabric>());
    v->push_back(std::make_unique<RailOnlyFabric>());
    v->push_back(std::make_unique<RailXFabric>());
    v->push_back(std::make_unique<UbMeshFabric>());
    return v;
  }();
  return *fabrics;
}

}  // namespace

const Fabric* find_fabric(std::string_view name) {
  for (const auto& f : registry()) {
    if (f->name() == name) return f.get();
  }
  return nullptr;
}

const Fabric& fabric_or_throw(std::string_view name) {
  const Fabric* f = find_fabric(name);
  if (f == nullptr) {
    throw ConfigError{"unknown fabric '" + std::string{name} + "' (known: " + fabric_names() +
                      ")"};
  }
  return *f;
}

const std::vector<const Fabric*>& all_fabrics() {
  static const auto* all = [] {
    auto* v = new std::vector<const Fabric*>;
    for (const auto& f : registry()) v->push_back(f.get());
    return v;
  }();
  return *all;
}

std::string fabric_names() {
  std::string out;
  for (const auto& f : registry()) {
    if (!out.empty()) out += ", ";
    out += f->name();
  }
  return out;
}

void apply_epoch(topo::Cluster& cluster, int epoch) {
  const auto& sched = cluster.circuits;
  if (sched.empty()) return;
  const auto e = static_cast<std::size_t>(((epoch % sched.epochs()) + sched.epochs()) %
                                          sched.epochs());
  for (const auto& links : sched.epoch_links) {
    for (const LinkId l : links) cluster.topo.set_duplex_up(l, false);
  }
  for (const LinkId l : sched.epoch_links[e]) cluster.topo.set_duplex_up(l, true);
}

CostProxy cost_proxy(const topo::Cluster& cluster) {
  CostProxy cost;
  cost.switches = static_cast<int>(cluster.tors.size() + cluster.aggs.size() +
                                   cluster.cores.size());
  std::unordered_set<LinkId> circuit;
  for (const auto& links : cluster.circuits.epoch_links) {
    for (const LinkId l : links) circuit.insert(l);
  }
  for (const topo::Link& l : cluster.topo.links()) {
    // Count each duplex cable once, via its forward half.
    if (l.reverse.value() < l.id.value()) continue;
    switch (l.kind) {
      case topo::LinkKind::kAccess:
        ++cost.access_cables;
        break;
      case topo::LinkKind::kFabric:
        ++cost.fabric_cables;
        if (circuit.contains(l.id)) cost.circuit_ports += 2;
        break;
      default:
        break;  // NVLink / PCIe are host-internal, not network cost.
    }
  }
  return cost;
}

}  // namespace hpn::fabric
