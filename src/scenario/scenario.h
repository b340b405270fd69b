// Serializable scenarios: a topology recipe, a flow workload, and a
// fault-injector schedule, with a deterministic text round-trip. The format
// is the canonical query payload of the `hpnsim serve` daemon (src/serve);
// the fuzz harness (tests/fuzz) draws, shrinks and replays the same
// scenarios, so every fuzz failure is a self-contained `.scenario` repro
// file. The generator and the shrinker live in tests/fuzz/generator.h.
//
// Scenario fields are *recipes*, not materialized ids: flow endpoints,
// fault cables, and ToR indices are mapped modulo the eligible set when
// the scenario is materialized. That closure property is what makes the
// greedy shrinker sound — dropping links, nodes, flows, or faults can
// never turn a valid scenario into an out-of-range one, so every shrink
// candidate parses and runs.
//
// The parser is strict about *content* and lenient about *formatting*:
// comments (`#` to end of line), CRLF line endings, blank lines, extra
// whitespace, and section interleaving are accepted (and erased by the
// canonical re-serialization `to_text()`); truncated files, duplicate
// scalar sections, trailing junk, overflowing numbers, and out-of-range
// values fail with a pinned, line-numbered error message instead of being
// silently clamped at materialization time.
//
// Numeric syntax is exactly what `istream >>` accepted when the format was
// defined (tests/support/reference_scenario_parser.h keeps that parser as
// the differential oracle; common/text.h's Cursor reproduces it):
//  - seed and the u32 fields (flow src/dst, fault target, job hosts/iters,
//    size, wiring) are one token of decimal digits only: no sign;
//  - the int64 fields (size_bytes, at_ns, down_for_ns, arrival_ns) take an
//    optional '+' or '-' and decimal digits, read up to the first
//    non-digit, so "100.5" is 100 followed by ".5";
//  - cap_gbps takes an optional sign, decimal digits with at most one '.',
//    and an optional exponent ('e'/'E', optional sign, at least one digit):
//    "+.5", "5.", "1E3" parse; "inf", "nan", hex floats and a bare "1e"
//    do not ("malformed"); a cap that underflows to 0 ("1e-400") reads as 0
//    and fails the (0, 10000] range check.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "routing/router.h"
#include "topo/cluster.h"

namespace hpn::sim {
class Simulator;
}  // namespace hpn::sim

namespace hpn::fuzz {

/// What to build. kTinyClos is the shrinker's terminal: a hand-built
/// dual-ToR Clos (hosts as bare NICs, 2 ToRs, 1-2 Aggs) that keeps
/// dual-ToR failover meaningful at 4-8 nodes.
enum class TopologyKind : std::uint8_t {
  kTinyClos,
  kHpnSegment,  ///< build_hpn: dual-ToR dual-plane segment with tier2.
  kDcnPlus,     ///< build_dcn_plus: previous-gen Clos.
  kFatTree,     ///< build_fat_tree: k-ary fat tree.
  kRailOnly,    ///< fabric "rail-only": per-rail ToRs, no Agg tier.
  kRailX,       ///< fabric "railx-lite": grouped rails + circuit ring.
  kUbMesh,      ///< fabric "ubmesh-lite": 2D full-mesh switch grid.
  kRandom,      ///< Connected random multigraph (the solver tests' net shape).
  /// build_hpn at honest scale: size = hosts per segment (1-128), wiring =
  /// segments per pod (1-16). The serve daemon and bench_serve use this for
  /// Pod-sized capacity-planning queries; the fuzz generator never draws
  /// it, so fuzz sweeps and the committed corpus are unchanged.
  kHpnPod,
};

std::string_view to_string(TopologyKind kind);
std::optional<TopologyKind> topology_kind_from(std::string_view name);

struct ScenarioFlow {
  std::uint32_t src = 0;  ///< Endpoint index (mod eligible endpoint count).
  std::uint32_t dst = 0;
  std::int64_t size_bytes = 0;
  double cap_gbps = 0.0;

  bool operator==(const ScenarioFlow&) const = default;
};

struct ScenarioFault {
  enum class Kind : std::uint8_t { kLinkFail, kLinkFlap, kTorCrash };
  Kind kind = Kind::kLinkFail;
  std::int64_t at_ns = 0;
  /// Cable index (mod cable count) for link faults; ToR index (mod ToR
  /// count) for crashes.
  std::uint32_t target = 0;
  /// Repair delay; 0 = never repaired (kLinkFail only).
  std::int64_t down_for_ns = 0;

  bool operator==(const ScenarioFault&) const = default;
};

std::string_view to_string(ScenarioFault::Kind kind);

/// One training job for the cluster-scheduler (jobsmix) phase. Like flow
/// endpoints, `hosts` is a recipe: it is clamped to the schedulable pool
/// when the phase builds its cluster, so any value is valid — dropping or
/// shrinking jobs can never produce an out-of-range scenario.
struct ScenarioJob {
  std::int64_t arrival_ns = 0;
  std::uint32_t hosts = 1;
  std::uint32_t iters = 1;

  bool operator==(const ScenarioJob&) const = default;
};

struct Scenario {
  std::uint64_t seed = 0;  ///< Master seed (labels the repro; not re-drawn).
  TopologyKind topology = TopologyKind::kTinyClos;
  /// Scale knob: node count (kRandom), hosts (kTinyClos / per-segment for
  /// kHpnSegment & kDcnPlus & kHpnPod / total for kRailOnly), grid columns
  /// (kUbMesh), hosts per group (kRailX), or ignored (kFatTree, fixed k=4).
  std::uint32_t size_knob = 2;
  /// Wiring knob: extra duplex links (kRandom), Agg count (kTinyClos),
  /// group count (kRailX), or segments per pod (kHpnPod).
  std::uint32_t wiring = 1;
  std::vector<ScenarioFlow> flows;
  std::vector<ScenarioFault> faults;
  /// Non-empty arms the jobsmix phase: the jobs replay through the
  /// multi-tenant cluster scheduler under every placement policy.
  std::vector<ScenarioJob> jobs;

  bool operator==(const Scenario&) const = default;

  /// Deterministic text form (same scenario -> byte-identical text). This
  /// is the *canonical* serialization: from_text(to_text(s)) == s, and
  /// to_text(parse(variant)) erases every formatting difference, so two
  /// textual variants of one scenario share canonical bytes (the property
  /// the serve cache keys on).
  [[nodiscard]] std::string to_text() const;
  /// Strict parse; nullopt on any malformed input.
  static std::optional<Scenario> from_text(std::string_view text);
  /// Same, reporting *why* it failed: `*error` gets a pinned, line-numbered
  /// message ("line 4: duplicate 'seed'", "truncated scenario: missing
  /// 'end'", ...) that tools surface verbatim (tests pin the exact text).
  static std::optional<Scenario> from_text(std::string_view text, std::string* error);
};

/// FNV-1a 64-bit over arbitrary bytes. Applied to canonical `to_text()`
/// output it is the content hash the serve result cache keys on.
std::uint64_t fnv1a64(std::string_view bytes);

/// A scenario bound to a concrete cluster: resolved paths, cables, faults.
struct Materialized {
  topo::Cluster cluster;
  /// Eligible flow endpoints (NIC nodes; every node for kRandom).
  std::vector<NodeId> endpoints;
  /// Forward direction of every access/fabric cable, in link-id order.
  std::vector<LinkId> cables;

  struct Flow {
    NodeId src = NodeId::invalid();
    NodeId dst = NodeId::invalid();
    std::vector<LinkId> path;  ///< Router::first_path at build time (all-up).
    DataSize size = DataSize::zero();
    Bandwidth cap = Bandwidth::zero();
  };
  std::vector<Flow> flows;  ///< Flows with no path are dropped here.
  routing::Router::Stats routing;  ///< Work route_flows did for `flows`.

  struct Fault {
    ScenarioFault::Kind kind = ScenarioFault::Kind::kLinkFail;
    TimePoint at;
    LinkId cable = LinkId::invalid();  ///< Forward direction (link faults).
    NodeId tor = NodeId::invalid();    ///< Crash target (kTorCrash).
    Duration down_for = Duration::zero();
  };
  std::vector<Fault> faults;

  /// Clos-shaped topologies route up-down, so PFC lossless mode cannot
  /// form a cyclic buffer dependency; random multigraphs can (a *real*
  /// deadlock, not a bug), so the harness runs them lossy.
  bool lossless_safe = false;
};

/// Build the scenario's cluster and resolve flows/faults against it.
/// Deterministic: same scenario -> identical cluster and resolutions.
Materialized materialize(const Scenario& scenario);

/// Set every flow's `path` to routing::Router::first_path over the
/// topology's *up* links (empty = unreachable). One Router serves the whole
/// batch, so its cache holds one distance field per destination attachment
/// set (e.g. 32 for a 16-segment, 2-rail Pod), not one per destination.
/// materialize() routes with it, and the serve daemon routes add-job probe
/// flows with it, exactly like base flows. Returns the Router's work.
routing::Router::Stats route_flows(const topo::Topology& topo,
                                   std::vector<Materialized::Flow>& flows);

/// Replay `faults` on `sim` against `topo`: per fault, in order, one event
/// at `at` that takes its cable (or every out-link of its ToR) down, then,
/// unless permanent, one at `at + down_for` that brings it back up. Each
/// event calls `on_change` after flipping the links, where an engine
/// re-reads link state (FlowSession::refresh). The simulator keeps a copy
/// of `on_change` per event, and `topo` must outlive the run.
void schedule_faults(sim::Simulator& sim, topo::Topology& topo,
                     const std::vector<Materialized::Fault>& faults,
                     const std::function<void()>& on_change);

}  // namespace hpn::fuzz
