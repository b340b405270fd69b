// Test-only oracle: routing::Router as it was before distance fields were
// keyed on the destination's ToR attachment set. Kept verbatim (header-only,
// renamed into namespace hpn::reference, without the epoch counter): one
// whole-Pod BFS per destination, cached in an unordered_map until
// invalidate(). The production router must
// return the same distance, ECMP group, first path and hashed trace for
// every (node, destination) pair. Deliberately unoptimized; do not use
// outside tests.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "routing/hash.h"
#include "routing/router.h"
#include "topo/topology.h"

namespace hpn::reference {

using routing::EcmpHasher;
using routing::FiveTuple;
using routing::HashConfig;
using routing::Path;

class Router {
 public:
  Router(const topo::Topology& topology, HashConfig hash_config = {})
      : topo_{&topology}, hasher_{hash_config} {}

  /// Hop distance from `from` to `dst` over up links; -1 if unreachable.
  [[nodiscard]] int distance(NodeId from, NodeId dst) { return field_for(dst)[from.index()]; }

  /// The ECMP group at `node` toward `dst`: all up out-links one hop closer.
  [[nodiscard]] std::vector<LinkId> ecmp_links(NodeId node, NodeId dst) {
    const auto& dist = field_for(dst);
    const std::int32_t here = dist[node.index()];
    std::vector<LinkId> out;
    if (here <= 0) return out;  // at destination or unreachable
    for (const LinkId lid : topo_->out_links(node)) {
      const topo::Link& l = topo_->link(lid);
      if (!l.up) continue;
      if (dist[l.dst.index()] != here - 1) continue;
      // field_for gives endpoints a distance without expanding them, so under
      // asymmetric failures a dual-homed NIC can look one hop closer.
      if (l.dst != dst && !can_transit(topo_->node(l.dst).kind)) continue;
      out.push_back(lid);
    }
    return out;
  }

  /// Trace the exact path flow `ft` takes from `src` to `dst`, applying the
  /// switch hash at every fan-out. Empty path if unreachable.
  [[nodiscard]] Path trace(NodeId src, NodeId dst, const FiveTuple& ft) {
    Path path;
    NodeId at = src;
    std::uint16_t ingress_port = 0;
    const std::size_t hop_limit = 32;
    while (at != dst) {
      const auto candidates = ecmp_links(at, dst);
      if (candidates.empty()) return Path{};  // unreachable
      const topo::Node& node = topo_->node(at);
      const std::uint32_t crc = routing::tuple_crc(ft);
      const std::size_t pick =
          node.kind == topo::NodeKind::kCore
              ? hasher_.select_at_core(ft, crc, at, ingress_port, candidates.size())
              : hasher_.select_crc(crc, at, candidates.size());
      const LinkId chosen = candidates[pick];
      path.links.push_back(chosen);
      const topo::Link& l = topo_->link(chosen);
      ingress_port = l.dst_port;
      at = l.dst;
      HPN_CHECK_MSG(path.links.size() <= hop_limit, "routing loop tracing to dst");
    }
    return path;
  }

  /// The hash-free shortest path: the first ECMP candidate (out-link order)
  /// at every hop. Empty if unreachable or src == dst.
  [[nodiscard]] Path first_path(NodeId src, NodeId dst) {
    Path path;
    for (NodeId at = src; distance(at, dst) > 0;) {
      const LinkId next = ecmp_links(at, dst).front();
      path.links.push_back(next);
      at = topo_->link(next).dst;
    }
    return path;
  }

  /// Trace with the first hop pinned.
  [[nodiscard]] Path trace_via(LinkId first_hop, NodeId dst, const FiveTuple& ft) {
    const topo::Link& first = topo_->link(first_hop);
    if (!first.up) return Path{};
    if (first.dst == dst) return Path{{first_hop}};
    // The remainder must make progress from the pinned hop's far end.
    if (distance(first.dst, dst) < 0) return Path{};
    Path rest = trace(first.dst, dst, ft);
    if (!rest.valid()) return Path{};
    Path out;
    out.links.reserve(rest.links.size() + 1);
    out.links.push_back(first_hop);
    out.links.insert(out.links.end(), rest.links.begin(), rest.links.end());
    return out;
  }

  /// Drop all cached distance fields; call after any link/topology change.
  void invalidate() { fields_.clear(); }

  [[nodiscard]] std::size_t cached_destinations() const { return fields_.size(); }

 private:
  /// Only switches forward through-traffic.
  static bool can_transit(topo::NodeKind kind) {
    switch (kind) {
      case topo::NodeKind::kTor:
      case topo::NodeKind::kAgg:
      case topo::NodeKind::kCore:
        return true;
      default:
        return false;
    }
  }

  /// Distance (in hops) from every node to `dst`; -1 if unreachable.
  const std::vector<std::int32_t>& field_for(NodeId dst) {
    auto it = fields_.find(dst);
    if (it != fields_.end()) return it->second;

    std::vector<std::int32_t> dist(topo_->node_count(), -1);
    dist[dst.index()] = 0;
    std::deque<NodeId> frontier{dst};
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop_front();
      if (u != dst && !can_transit(topo_->node(u).kind)) continue;
      const std::int32_t du = dist[u.index()];
      // Traverse in-links of u: for each out-link u->v, the reverse v->u is
      // the edge a packet at v would actually use, so it must be up.
      for (const LinkId lid : topo_->out_links(u)) {
        const topo::Link& l = topo_->link(lid);
        if (!topo_->link(l.reverse).up) continue;
        if (dist[l.dst.index()] != -1) continue;
        dist[l.dst.index()] = du + 1;
        frontier.push_back(l.dst);
      }
    }
    return fields_.emplace(dst, std::move(dist)).first->second;
  }

  const topo::Topology* topo_;
  EcmpHasher hasher_;
  std::unordered_map<NodeId, std::vector<std::int32_t>> fields_;
};

}  // namespace hpn::reference
