// A fabric as a strategy object (ROADMAP item 2): one named bundle of
//   * a wiring recipe   — how to build a Cluster at a requested scale,
//   * a hash/path policy — the ECMP HashConfig the architecture runs with,
//   * a reconfiguration period — for optically-switched fabrics, how long
//     each circuit-tier epoch dwells (static fabrics report zero).
//
// Strategies live in a process-wide registry keyed by CLI-friendly names
// (`--fabric hpn|dcn+|fat-tree|rail-only|railx-lite|ubmesh-lite`), so
// benches, the fuzzer, and the CLI can race architectures head-to-head
// without knowing any builder signature.
//
// The HPN / DCN+ / fat-tree strategies are thin adapters over the existing
// builders — test_fabric_equivalence pins them byte-identical to the
// pre-refactor output preserved in tests/support/reference_builders.h.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "routing/hash.h"
#include "topo/cluster.h"

namespace hpn::fabric {

/// Builder-agnostic scale knobs. Each strategy documents how it maps them
/// onto its own geometry; the invariant is monotonicity (more segments or
/// hosts never shrinks the cluster), not a shared formula.
struct FabricScale {
  int pods = 1;
  /// Segments (HPN/DCN+), k/2 (fat-tree), groups (RailX-lite), grid
  /// columns (UB-Mesh-lite), or host-count multiplier (Rail-only).
  int segments_per_pod = 2;
  int hosts_per_segment = 4;
  int gpus_per_host = 8;
};

/// Cost proxy (Table 1-style comparison): counts, not dollars. Optics are
/// approximated as one transceiver pair per fabric cable plus one per
/// access cable; circuit ports count the OCS side of reconfigurable links.
struct CostProxy {
  int switches = 0;        ///< ToR + Agg + Core.
  int access_cables = 0;   ///< NIC <-> ToR duplex cables.
  int fabric_cables = 0;   ///< Switch <-> switch duplex cables.
  int circuit_ports = 0;   ///< OCS ports consumed by reconfigurable cables.
  [[nodiscard]] int optics_units() const { return 2 * (access_cables + fabric_cables); }
};

class Fabric {
 public:
  virtual ~Fabric() = default;

  /// Registry key ("hpn", "railx-lite", ...).
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::string_view description() const = 0;

  /// Wiring recipe: build a cluster at the requested scale.
  [[nodiscard]] virtual topo::Cluster build(const FabricScale& scale) const = 0;

  /// Hash/path policy this architecture is operated with.
  [[nodiscard]] virtual routing::HashConfig hash_policy() const = 0;

  /// Suggested dwell time per circuit-tier epoch; zero (the default) means a
  /// static fabric. The epoch count is scale-dependent and lives in the
  /// built cluster (`Cluster::circuits`).
  [[nodiscard]] virtual Duration reconfig_period() const { return Duration::zero(); }
};

/// Look up a strategy by name; nullptr when unknown.
const Fabric* find_fabric(std::string_view name);

/// Look up a strategy by name; throws ConfigError listing known names.
const Fabric& fabric_or_throw(std::string_view name);

/// Every registered strategy, in registration order (HPN first).
const std::vector<const Fabric*>& all_fabrics();

/// Comma-separated registry keys, for --help text and error messages.
std::string fabric_names();

/// Flip the circuit tier of a reconfigurable cluster to `epoch` (modulo the
/// schedule length): exactly that epoch's links come up, every other
/// circuit link goes down. No-op for clusters without circuits.
void apply_epoch(topo::Cluster& cluster, int epoch);

/// Count the cost proxy of a built cluster. Circuit cables (links named in
/// the cluster's CircuitSchedule) are additionally charged as OCS ports.
CostProxy cost_proxy(const topo::Cluster& cluster);

}  // namespace hpn::fabric
