// Equal-cost multi-path routing over a Topology.
//
// For each destination we BFS a hop-count field over *up* links; at any node
// the ECMP group toward a destination is the set of up out-links whose far
// end is strictly closer. Path tracing then applies the configured switch
// hash at every hop — so hash polarization, per-port core hashing and
// dual-plane path pinning all emerge from topology + hash policy, never
// from special cases.
//
// Distance fields are cached per destination and invalidated wholesale when
// link state changes (BGP reconvergence is modeled by the ctrl layer; the
// router reflects the post-convergence fabric).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "routing/hash.h"
#include "topo/topology.h"

namespace hpn::routing {

struct Path {
  std::vector<LinkId> links;
  [[nodiscard]] bool valid() const { return !links.empty(); }
  [[nodiscard]] std::size_t hops() const { return links.size(); }
};

class Router {
 public:
  Router(const topo::Topology& topology, HashConfig hash_config = {});

  [[nodiscard]] const EcmpHasher& hasher() const { return hasher_; }
  [[nodiscard]] const topo::Topology& topology() const { return *topo_; }

  /// Hop distance from `from` to `dst` over up links; -1 if unreachable.
  [[nodiscard]] int distance(NodeId from, NodeId dst);

  /// The ECMP group at `node` toward `dst`: all up out-links one hop closer.
  [[nodiscard]] std::vector<LinkId> ecmp_links(NodeId node, NodeId dst);

  /// Trace the exact path flow `ft` takes from `src` to `dst`, applying the
  /// switch hash at every fan-out. Empty path if unreachable.
  [[nodiscard]] Path trace(NodeId src, NodeId dst, const FiveTuple& ft);

  /// The hash-free shortest path: the first ECMP candidate (out-link order)
  /// at every hop. That is the lexicographically lowest shortest path, the
  /// one a BFS from `src` visiting adjacency in out-link order finds. Empty
  /// if unreachable or src == dst.
  [[nodiscard]] Path first_path(NodeId src, NodeId dst);

  /// Trace with the first hop pinned (the host already chose a NIC egress
  /// port — this is how dual-ToR port/plane selection enters routing).
  [[nodiscard]] Path trace_via(LinkId first_hop, NodeId dst, const FiveTuple& ft);

  /// Drop all cached distance fields; call after any link/topology change.
  void invalidate();

  /// Monotone counter bumped by invalidate() (lets callers cache on top).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  [[nodiscard]] std::size_t cached_destinations() const { return fields_.size(); }

 private:
  /// Distance (in hops) from every node to `dst`; -1 if unreachable.
  const std::vector<std::int32_t>& field_for(NodeId dst);

  const topo::Topology* topo_;
  EcmpHasher hasher_;
  std::unordered_map<NodeId, std::vector<std::int32_t>> fields_;
  std::uint64_t epoch_ = 0;
};

}  // namespace hpn::routing
