// Test-only topology export: Graphviz DOT for eyeballing wiring, and a
// line-oriented JSON inventory. Both are lossless at the node/link level
// (kinds, locations, capacities, state), which makes them the byte-equality
// oracle of the fabric equivalence suite. Linked into test_topo and
// test_fabric_equivalence only.
#pragma once

#include <ostream>
#include <string>

#include "topo/cluster.h"

namespace hpn::topo {

struct ExportOptions {
  /// Collapse endpoint devices (GPUs, NICs, NVSwitches) into their host to
  /// keep paper-scale graphs renderable; switches are always emitted.
  bool collapse_hosts = false;
  /// Skip duplex twins (emit one undirected edge per cable).
  bool undirected = true;
};

/// Graphviz DOT. Nodes are shaped/colored by kind, ranked by tier; edges
/// are labeled with capacity and dashed when down.
void write_dot(const Cluster& cluster, std::ostream& os, const ExportOptions& opts = {});

/// JSON: {"nodes":[...],"links":[...]} with full metadata.
void write_json(const Cluster& cluster, std::ostream& os);

std::string to_dot(const Cluster& cluster, const ExportOptions& opts = {});
std::string to_json(const Cluster& cluster);

}  // namespace hpn::topo
